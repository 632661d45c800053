"""The reference snippet that benchmark times are expressed in.

A fixed computation of the same kind as the library's: interpreted Python
arithmetic plus a small scipy DOP853 solve with a numpy right-hand side. It
calls nothing from finslerproj, so a change to the library leaves it alone.

On a shared host, other tenants' load slows every computation in this
process by up to half, for seconds to minutes at a time, and the CPU clock
counts that slowdown just as the wall clock does. Timed right before and
right after each operation, the snippet is slowed by the same load, so an
operation's time divided by the snippet's keeps its value while the host's
speed changes.
"""

import time

import numpy as np
from scipy import integrate

_ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _snippet():
    acc = 0.0
    for i in range(1500):
        acc += (i * 7) % 11 * 0.5
    integrate.solve_ivp(lambda t, z: _ROTATION @ z, (0.0, 2.0), [1.0, 0.0],
                        method="DOP853", rtol=1e-10, atol=1e-11)
    return acc


def seconds():
    """CPU seconds of one run of the snippet."""
    start = time.process_time()
    _snippet()
    return time.process_time() - start
