"""Time one fresh-process set-up, or the yardstick it is scaled by.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
       python3 perfbench/setup_probe.py base
The first form prints the CPU seconds from before the import of finslerproj
to the built workload. The second prints the CPU seconds of importing numpy
and scipy.integrate alone: work of the same kind, which the host's load
slows by the same share.
"""

import time

START = time.process_time()

import sys  # noqa: E402

import env  # noqa: E402

env.prepare()
if sys.argv[1] == "base":
    import numpy  # noqa: E402,F401
    import scipy.integrate  # noqa: E402,F401
else:
    import finslerproj  # noqa: E402,F401

    import workloads  # noqa: E402

    workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.process_time() - START))
