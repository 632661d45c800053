"""Spans and counters recorded from outside the library.

While a `Tracer` is active, the public layer functions are replaced, under
every name a finslerproj module binds them to, by wrappers that record a
span per call; `scipy.integrate.solve_ivp` is wrapped to count right-hand-
side evaluations, credited to the layer of the enclosing span; and the
metric instances the benchmark built get counting `norm`, `spray_vector`
and `_spray_impl` methods. Leaving the context restores everything, so an
untraced round runs the library untouched.

A span's self time is its duration minus the durations of its child spans.
The tracing's own cost is estimated as the calls through each kind of
wrapper times that wrapper's cost, timed on a no-op in the same process.
"""

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import scipy.integrate

from finslerproj import curvature, diffengine, distance, geodesics, projective


def _iterations(result):
    return {"geodesics.connect.shots": result.iterations}


def _q_samples(par):
    return {"projective.q_samples": len(par.s_grid)}


def _chart_evals(report):
    return {"distance.chart_search_evals": report.evaluations}


# (function, span name, counts taken from the returned object)
SPANS = [
    (geodesics.connect, "geodesics.connect", _iterations),
    (geodesics.integrate_geodesic, "geodesics.integrate", None),
    (geodesics.extend_geodesic, "geodesics.extend", None),
    (projective.projective_parameter, "projective.projective_parameter", _q_samples),
    (curvature.check_ricci_bound, "curvature.check_ricci_bound", None),
    (curvature.ricci_tensor, "curvature.ricci_tensor", None),
    (curvature.ricci_scalar, "curvature.ricci_scalar", None),
    (diffengine.fundamental_tensor, "diffengine.fundamental_tensor", None),
    (distance.pseudo_distance_upper, "distance.pseudo_distance_upper", _chart_evals),
]

# metric method -> counter
METHOD_COUNTERS = [
    ("norm", "core.norm_evals"),
    ("spray_vector", "geodesics.spray_evals"),
    ("_spray_impl", "curvature.spray_jet_evals"),
]


class Tracer:
    """Accumulates self time, calls and counts per name across activations."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []        # [name, start, time spent in child spans]
        self.wrapped_calls = Counter()   # calls per kind of wrapper

    def _span(self, fn, name, counts_of):
        def wrapper(*args, **kwargs):
            self.wrapped_calls["span"] += 1
            frame = [name, time.process_time(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.process_time() - frame[1]
                self._stack.pop()
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration
            if counts_of is not None:
                self.counts.update(counts_of(result))
            return result
        return wrapper

    def _solve_ivp(self, fn):
        def wrapper(*args, **kwargs):
            self.wrapped_calls["solve_ivp"] += 1
            sol = fn(*args, **kwargs)
            layer = self._stack[-1][0].split(".")[0] if self._stack else "untraced"
            self.counts[f"{layer}.ode_nfev"] += sol.nfev
            return sol
        return wrapper

    def _counting(self, method, key):
        def wrapper(*args, **kwargs):
            self.wrapped_calls["counting"] += 1
            self.counts[key] += 1
            return method(*args, **kwargs)
        return wrapper

    def overhead_s(self):
        """CPU seconds the wrappers added to the calls counted so far."""
        def noop(*args, **kwargs):
            return SimpleNamespace(nfev=0)

        def cost(fn, calls=20000):
            """Best of five timings, per call."""
            best = math.inf
            for _ in range(5):
                start = time.process_time()
                for _ in range(calls):
                    fn()
                best = min(best, time.process_time() - start)
            return best / calls

        probe = Tracer()
        bare = cost(noop)
        unit = {"span": cost(probe._span(noop, "noop", None)) - bare,
                "solve_ivp": cost(probe._solve_ivp(noop)) - bare,
                "counting": cost(probe._counting(noop, "noop")) - bare}
        return sum(count * unit[kind] for kind, count in self.wrapped_calls.items())

    @contextmanager
    def active(self, metrics):
        """Install the wrappers for the duration of the block."""
        patched = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "finslerproj" or name.startswith("finslerproj.")]
        for fn, name, counts_of in SPANS:
            wrapper = self._span(fn, name, counts_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, fn))
        solve_ivp = scipy.integrate.solve_ivp
        scipy.integrate.solve_ivp = self._solve_ivp(solve_ivp)
        for metric in metrics:
            for method, key in METHOD_COUNTERS:
                setattr(metric, method, self._counting(getattr(metric, method), key))
        try:
            yield self
        finally:
            for metric in metrics:
                for method, _ in METHOD_COUNTERS:
                    delattr(metric, method)
            scipy.integrate.solve_ivp = solve_ivp
            for module, attr, fn in patched:
                setattr(module, attr, fn)
