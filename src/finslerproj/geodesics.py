"""Spray coefficients, geodesic initial- and boundary-value solving, and the
induced distance.

Geodesics are integrated exclusively in arc-length form: the initial vector
is normalized to unit Finsler norm and the solution of
x'' + G(x, x') = 0 then keeps F(x, x') = 1 up to integrator error.

The integrator is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, 1993),
stepped as scipy's own DOP853 solver steps it; see `_solve_leg`. Each leg
stacks its steps' interpolant rows for one Horner pass over many s.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize
from scipy.linalg.blas import dgemv

from .core import BOUNDARY_MARGIN, as_components, as_coords, boundary_room
from .diffengine import central_d1, fundamental_tensor
from .errors import (ConnectivityError, ConvexityError, DomainError,
                     StiffnessError)
from .metrics import RiemannianMetric

EXTENSION_CAP = 50.0
# Chain construction needs the chart endpoints to sit at machine accuracy,
# so maximal extension runs much closer to the boundary than plain IVPs.
EXTENSION_MARGIN = 1e-12


# ======================================================================
# Spray
# ======================================================================

def _spray_xdata(metric, x, y):
    """x-data of the formal-Christoffel route: the tensor g0 at x and its
    x-derivatives dg[a, b, k] = d g_ab / d x^k, by the one stencil."""
    n = metric.dimension

    def g_from(xx, ga):
        if ga is None:
            return fundamental_tensor(metric, xx, y)
        ga = np.asarray(ga, dtype=float)
        return 0.5 * (ga + ga.T)

    def g_at(xx):
        return g_from(xx, metric.metric_tensor(xx, y))

    analytic = metric.metric_tensor(x, y)  # read once: it is also g at x
    h = (1e-5 if analytic is not None else 1e-3) * max(1.0, float(np.abs(x).max()))
    h = min(h, 0.25 * boundary_room(metric, x))  # keep the stencil inside the domain
    if h <= 0:
        raise DomainError("spray stencil cannot stay inside the domain")

    g0 = g_from(x, analytic)
    dg = np.empty((n, n, n))
    for k in range(n):
        dg[:, :, k] = central_d1(g_at, x, k, h)
    return g0, dg


def _solve(x, g, rhs):
    """np.linalg.solve(g, rhs) for the tensor g at x; singular is a ConvexityError."""
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvexityError(f"singular fundamental tensor at x={x.tolist()}") from exc


def _contract(x, g0, dg, ys):
    """Formal-Christoffel route at x for the (m, n) stack ys, from the x-data g0, dg:
    G^i = g^{is}(dg_sj/dx^k - dg_jk/dx^s / 2) y^j y^k, in one stacked solve."""
    rhs = (np.einsum("sjk,mj,mk->ms", dg, ys, ys)
           - 0.5 * np.einsum("jks,mj,mk->ms", dg, ys, ys))[:, :, None]
    return _solve(x, np.broadcast_to(g0, (len(ys),) + g0.shape), rhs)[:, :, 0]


def _spray_from_tensor(metric, x, y):
    return _contract(x, *_spray_xdata(metric, x, y), y[None])[0]


def _spray(metric, x, y):
    g = metric.spray_vector(x, y)
    return _spray_from_tensor(metric, x, y) if g is None else np.asarray(g, dtype=float)


def spray_vector(metric, x, y) -> np.ndarray:
    """Spray coefficients G(x, y) of the geodesic equation x'' + G = 0."""
    return _spray(metric, *metric.check_line_element(x, y))


def spray_batch(metric, X, Y) -> np.ndarray:
    """Sprays at the (N, n) stacks X, Y, row k with the bits of spray_vector. A
    RiemannianMetric's tensor ignores y, so each distinct x (by its bytes) is
    validated, probed for an analytic spray and, without one, builds its x-data
    once for one stacked solve over all its y's. Other metrics go row by row."""
    X = np.ascontiguousarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    # other metrics, or a non-finite or zero y: row by row, the first bad row raising
    if not (isinstance(metric, RiemannianMetric) and np.isfinite(Y).all() and Y.any(1).all()):
        return np.array([spray_vector(metric, x, y) for x, y in zip(X, Y)],
                        dtype=float).reshape(Y.shape)
    keys = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    out = np.empty_like(Y)
    for group in np.argsort(first):  # distinct points in order of appearance
        rows = np.flatnonzero(inverse.ravel() == group)
        x, ys = metric.check_point(X[rows[0]]), Y[rows]
        g = metric.spray_vector(x, ys[0])
        if g is not None:
            out[rows] = [g] + [metric.spray_vector(x, y) for y in ys[1:]]
            continue
        out[rows] = _contract(x, *_spray_xdata(metric, x, ys[0]), ys)
    return out


# ======================================================================
# Segments
# ======================================================================

# DOP853's tableau from scipy's public class, as (s, a): stage s sums the stages
# before it with weights a, 13 to 15 for dense output. The spray has no s: no C
_DOP = integrate.DOP853
_STAGES = [(s, row[:s].copy()) for rows, first in ((_DOP.A[1:], 1), (_DOP.A_EXTRA, 13))
           for s, row in enumerate(rows, first)]
_EPS = np.finfo(float).eps


def _horner(step, s):
    """A step's interpolant at s: scipy's nested x, 1 - x form over its seven
    rows, on floats, or column by column where `step` is an array with one
    step per column and s one value each. A step is [start, h, y0..., rows...]."""
    x, m = (s - step[0]) / step[1], (len(step) - 2) // 8
    w, out = (x, 1 - x) * 3 + (x,), []  # w[i]: the factor after row i
    for j in range(2, 2 + m):
        acc = 0.0
        for i in range(6, -1, -1):
            acc = (acc + step[j + m * (i + 1)]) * w[i]
        out.append(acc + step[j])
    return out


class _Leg:
    """One direction of a geodesic from s = 0: its nodes t with states y, and per
    step [start, h, start state, seven interpolant rows], also as one array."""

    def __init__(self, direction, t, y, steps, counts):
        self.direction, self.t, self.y, self._steps, self.counts = direction, t, y, steps, counts
        self._keys = [direction * tk for tk in t]  # increasing, for the search
        self._stacked = np.array(self._keys), np.array(steps)

    def at(self, s):  # OdeSolution's pick of the step for s
        k = bisect.bisect_left(self._keys, self.direction * s)
        return _horner(self._steps[min(max(k - 1, 0), len(self._steps) - 1)], s)

    def at_all(self, ss):
        """at(s) for every s of the array ss, bit for bit, in one Horner pass."""
        keys, steps = self._stacked
        S = steps[np.clip(np.searchsorted(keys, self.direction * ss) - 1, 0, len(steps) - 1)]
        return np.stack(_horner(S.T, ss), axis=-1)


class GeodesicSegment:
    """Arc-length parametrized geodesic with dense output.

    The anchor sits at s = 0; the segment covers [s_min, s_max] with
    s_min <= 0 <= s_max. `samples` collects the integrator steps as
    (s, x, v) triples; `truncated` flags a boundary stop before the
    requested length was reached. `steps`, `rejected` and `nfev` sum the
    accepted and rejected DOP853 steps and right-hand-side calls of its legs.
    """

    def __init__(self, metric, anchor_state, forward=None, backward=None,
                 requested=(0.0, 0.0), truncated=(False, False)):
        self.metric = metric
        self._anchor = np.asarray(anchor_state, dtype=float)
        self._forward = forward
        self._backward = backward
        self.requested_backward, self.requested_forward = requested
        self.truncated_backward, self.truncated_forward = truncated
        self.s_min = backward.t[-1] if backward is not None else 0.0
        self.s_max = forward.t[-1] if forward is not None else 0.0
        ss, states = [0.0], [self._anchor.tolist()]
        if backward is not None:
            ss, states = backward.t[::-1] + ss, backward.y[::-1] + states
        if forward is not None:
            ss, states = ss + forward.t, states + forward.y
        # the legs meet at the anchor; keep s strictly increasing
        keep = [0] + [i for i in range(1, len(ss)) if ss[i] > ss[i - 1]]
        self.sample_s = np.asarray([ss[i] for i in keep])
        self.sample_states = np.asarray([states[i] for i in keep])
        legs = [leg.counts for leg in (forward, backward) if leg is not None]
        self.steps, self.rejected, self.nfev = map(sum, zip((0, 0, 0), *legs))

    @property
    def truncated(self):
        return self.truncated_forward or self.truncated_backward

    @property
    def length(self) -> float:
        return self.s_max - self.s_min

    def _check_inside(self, s):
        slack = 1e-10 * max(1.0, abs(self.s_min), abs(self.s_max))
        if s < self.s_min - slack or s > self.s_max + slack:
            raise DomainError(f"parameter {s} outside segment [{self.s_min}, {self.s_max}]")

    def state(self, s):
        s = float(s)
        self._check_inside(s)
        s = min(max(s, self.s_min), self.s_max)
        leg = self._forward if s >= 0.0 else self._backward
        if leg is None:
            return self._anchor.copy()
        return np.array(leg.at(s))

    def states(self, ss) -> np.ndarray:
        """Dense-output states (x, v) at every s of ss, shape (len(ss), 2n);
        row k equals state(ss[k]), with one Horner pass per leg."""
        ss = np.asarray(ss, dtype=float).ravel()
        if ss.size:
            self._check_inside(float(ss.min()))
            self._check_inside(float(ss.max()))
        ss = np.clip(ss, self.s_min, self.s_max)
        out = np.empty((ss.size, self._anchor.size))
        fwd = ss >= 0.0
        for side, leg in ((fwd, self._forward), (~fwd, self._backward)):
            if not side.any():
                continue
            out[side] = self._anchor if leg is None else leg.at_all(ss[side])
        return out

    def position(self, s):
        return self.state(s)[: self.metric.dimension]

    def velocity(self, s):
        return self.state(s)[self.metric.dimension:]

    def positions(self, ss) -> np.ndarray:
        """Bulk dense-output positions, shape (len(ss), n)."""
        return self.states(ss)[:, : self.metric.dimension]

    @property
    def samples(self):
        n = self.metric.dimension
        return [(float(s), st[:n], st[n:]) for s, st in zip(self.sample_s, self.sample_states)]

    def clipped(self, s_end) -> "GeodesicSegment":
        """The forward leg up to arc length s_end, sharing this segment's
        dense output; the state at s_end becomes the last sample."""
        s_end, fwd = float(s_end), self._forward
        keep = sum(s < s_end for s in fwd.t)
        return GeodesicSegment(self.metric, self._anchor, requested=(0.0, s_end), forward=_Leg(
            1.0, fwd.t[:keep] + [s_end], fwd.y[:keep] + [fwd.at(s_end)], fwd._steps, fwd.counts))

    def unit_speed_drift(self) -> float:
        worst = 0.0
        for s, x, v in self.samples:
            worst = max(worst, abs(self.metric.norm(x, v) - 1.0))
        return worst


def _solve_leg(metric, z0, s_end, rtol, atol, margin, escape_as_truncation=False):
    """DOP853 for z = (x, v), z' = (v, -G(x, v)) from z0 at s = 0 to s_end, step for
    step scipy's DOP853 with dense output and a terminal event: its initial step,
    E5/E3 error norm, step factors and 10-ulp step floor. Stage states are BLAS row
    sums, the spray runs on floats, and a NaN or ZeroDivisionError stage, dense
    output's included, rejects the step. On a bounded domain the leg ends where phi
    falls to margin * domain_scale, by brentq on the step's interpolant. Returns
    (leg, truncated); the floor raises StiffnessError or truncates an extension."""
    n, m = metric.dimension, len(z0)
    counts = [0, 0, 0]  # accepted steps, rejected steps, right-hand-side calls
    # the float closed form, or views of one state array, as the spray always saw
    spray = metric._spray_impl if metric.spray_supports_jets else (
        lambda x, v: _spray(metric, *np.split(np.array(x + v), 2)).tolist())

    def fun(z):
        counts[2] += 1
        v = z[n:]
        try:
            G = spray(z[:n], v)
        except ZeroDivisionError:  # a stage on the closed form's own boundary
            G = [math.nan] * n
        return v + [-g for g in G]

    threshold = margin * metric.domain_scale if metric.bounded_domain else None
    gap = lambda z: metric.domain_value(np.array(z[:n])) - threshold
    direction, rtol = math.copysign(1.0, s_end), max(rtol, 100 * _EPS)
    t, y, f = 0.0, z0.tolist(), fun(z0.tolist())
    # scipy's select_initial_step (error order 7), on numpy scalars as there
    ya, fa = np.array(y), np.array(f)
    scale = atol + np.abs(ya) * rtol
    d0, d1 = (np.linalg.norm(v / scale) / m ** 0.5 for v in (ya, fa))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(s_end))
    f1 = np.array(fun((ya + h0 * direction * fa).tolist()))
    d2 = np.linalg.norm((f1 - fa) / scale) / m ** 0.5 / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, abs(s_end)))
    g = None if threshold is None else gap(y)
    ts, ys, steps = [t], [y], []
    K = np.empty((16, m))  # the stages, one row each, and the rows each stage sums
    stages, KB, KE = [(s, a, K[:s].T) for s, a in _STAGES], K[:12].T, K[:13].T
    status, step_rejected = None, False
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if not step_rejected:  # a new step starts at least at the floor
            h_abs = max(h_abs, min_step)
        if not h_abs >= min_step:  # a NaN step, where scipy would loop forever, fails too
            status = -1
            break
        t_new = t + h_abs * direction
        if direction * (t_new - s_end) > 0:
            t_new = s_end
        h = t_new - t
        h_abs = abs(h)
        K[0] = f
        for s, a, Ks in stages[:11]:
            K[s] = fun([yj + q * h for yj, q in zip(y, dgemv(1.0, Ks, a).tolist())])
        y_new = [yj + h * q for yj, q in zip(y, dgemv(1.0, KB, _DOP.B).tolist())]
        K[12] = f_new = fun(y_new)
        yn = np.array(y_new)
        scale = atol + np.maximum(np.abs(ya), np.abs(yn)) * rtol
        # np.linalg.norm(err) ** 2 of the E5 and E3 error estimates
        s5, s3 = (np.sqrt(e @ e) ** 2 for e in (dgemv(1.0, KE, E) / scale
                                                 for E in (_DOP.E5, _DOP.E3)))
        error = 0.0 if s5 == s3 == 0 else float(h_abs * s5 / np.sqrt((s5 + 0.01 * s3) * m))
        if error < 1:  # the interpolant's stages: one past the boundary rejects the step too
            for s, a, Ks in stages[11:]:
                K[s] = fun([yj + q * h for yj, q in zip(y, dgemv(1.0, Ks, a).tolist())])
            error = error if np.isfinite(K[13:]).all() else math.nan
        if not error < 1:
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            step_rejected = True
            counts[1] += 1
            continue
        factor = 10.0 if error == 0 else min(10.0, 0.9 * error ** -0.125)
        h_abs *= min(1.0, factor) if step_rejected else factor
        step_rejected = False
        counts[0] += 1
        status = 0 if direction * (t_new - s_end) >= 0 else None
        dy = [b - a for a, b in zip(y, y_new)]
        step = (([t, h] + y + dy) + [h * a - b for a, b in zip(f, dy)]
                + [2 * b - h * (c + a) for a, b, c in zip(f, dy, f_new)]
                + (h * (_DOP.D @ K)).ravel().tolist())
        steps.append(step)
        t, y, f, ya = t_new, y_new, f_new, yn
        if threshold is not None:
            g_new = gap(y)
            if g <= 0 <= g_new or g >= 0 >= g_new:  # scipy's terminal event, either direction
                t = optimize.brentq(lambda s: gap(_horner(step, s)), step[0], t,
                                    xtol=4 * _EPS, rtol=4 * _EPS)
                y, status = _horner(step, t), 1
            g = g_new
        if len(ts) > 1 and ts[-1] == t:  # the event sits on the last node
            del steps[-1]
        else:
            ts.append(t)
            ys.append(y)
    if status == -1 and not (escape_as_truncation and len(ts) > 1):
        # geodesics escaping the chart in finite arc length end the maximal
        # extension there; plain IVPs report the underflow as an error
        raise StiffnessError(f"geodesic integration failed: step size underflow at s={t!r}")
    return _Leg(direction, ts, ys, steps, counts), status != 0


def _unit_state(metric, x0, y0):
    """The validated start (x0, y0 / F(x0, y0)) of a unit-speed geodesic."""
    x0, y0 = metric.check_line_element(as_coords(x0), as_components(y0))
    v = y0 / metric.norm(x0, y0)
    if not np.all(np.isfinite(v)):  # F underflowed to 0 or overflowed
        raise DomainError(f"{metric.name}: y0={y0.tolist()} cannot be scaled to unit speed")
    return np.concatenate([x0, v])


def integrate_geodesic(metric, x0, y0, length, *, tol=1e-11,
                       boundary_margin=BOUNDARY_MARGIN) -> GeodesicSegment:
    """Unit-speed geodesic from x0 in direction y0, integrated for the given length.

    y0 is normalized to F(x0, y0) = 1. A boundary approach within the margin
    stops the integration and flags the segment truncated.
    """
    z0 = _unit_state(metric, x0, y0)
    if not (math.isfinite(length) and length >= 0):
        raise DomainError(f"geodesic length must be finite and nonnegative, got {length}; "
                          "integrate the reverse direction for a backward leg")
    if length == 0.0:
        return GeodesicSegment(metric, z0)
    sol, truncated = _solve_leg(metric, z0, float(length), tol, tol * 1e-1, boundary_margin)
    return GeodesicSegment(metric, z0, forward=sol,
                           requested=(0.0, float(length)), truncated=(False, truncated))


def extend_geodesic(metric, x0, y0, *, cap=EXTENSION_CAP, tol=1e-11,
                    boundary_margin=EXTENSION_MARGIN) -> GeodesicSegment:
    """Maximal extension through (x0, y0): both directions to the boundary
    margin or the length cap, which must be finite and positive."""
    if not (math.isfinite(cap) and cap > 0):
        raise DomainError(f"extension cap must be finite and positive, got {cap}")
    z0 = _unit_state(metric, x0, y0)
    fwd, tf = _solve_leg(metric, z0, float(cap), tol, tol * 1e-1, boundary_margin,
                         escape_as_truncation=True)
    back, tb = _solve_leg(metric, z0, -float(cap), tol, tol * 1e-1, boundary_margin,
                          escape_as_truncation=True)
    return GeodesicSegment(metric, z0, forward=fwd, backward=back,
                           requested=(-float(cap), float(cap)), truncated=(tb, tf))


# ======================================================================
# Boundary-value solving and distance
# ======================================================================

@dataclass
class BVPResult:
    """Connecting geodesic with its terminal miss distance."""

    segment: GeodesicSegment
    miss: float
    iterations: int


def _chord_length(metric, x, y, samples=64):
    ts = (np.arange(samples) + 0.5) / samples
    d = y - x
    points = x + ts[:, None] * d
    acc = 0.0
    for f in metric.norm_batch(points, np.broadcast_to(d, points.shape)).tolist():
        acc += f  # left to right, as a scalar loop sums
    return acc / samples


def _closest_approach(segment, target):
    ss = np.linspace(segment.s_min, segment.s_max, 65)
    dists = np.linalg.norm(segment.positions(ss) - target, axis=1)
    i = int(np.argmin(dists))
    lo = ss[max(0, i - 1)]
    hi = ss[min(len(ss) - 1, i + 1)]
    # the squared distance is a smooth parabola through the approach point
    res = optimize.minimize_scalar(
        lambda s: float(np.sum((segment.position(s) - target) ** 2)),
        bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-14, "maxiter": 300})
    fun = math.sqrt(max(res.fun, 0.0))
    if fun <= dists[i]:
        return float(res.x), fun
    return float(ss[i]), float(dists[i])


def connect(metric, x, y, tol=1e-8, max_nfev=60) -> BVPResult:
    """Shooting solve for the geodesic from x to y.

    The search runs over the initial direction only (the straight chord is
    the starting guess); the arc length of the hit comes out as a by-product.
    A chord shot that already hits within tol is returned without a solve,
    and the result segment is the closest shot clipped at its hit.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"connect needs a finite positive miss tolerance, got {tol}")
    x = metric.check_point(as_coords(x))
    y = metric.check_point(as_coords(y))
    if np.array_equal(x, y):
        raise ConnectivityError("connect needs two distinct points", best_miss=0.0)
    n = metric.dimension
    chord = y - x
    dir0 = chord / metric.norm(x, chord)
    L0 = _chord_length(metric, x, y)
    L_max = 1.5 * L0 + 0.25

    # orthonormal basis of the chord's complement parametrizes the search
    basis = np.linalg.qr(np.column_stack([chord] + list(np.eye(n))))[0][:, 1:n]
    evals = 0

    def shoot(u):
        nonlocal evals
        evals += 1
        d = dir0 + basis @ u
        d = d / metric.norm(x, d)
        seg = None
        for length in (L_max, 1.15 * L0 + 0.02, 1.02 * L0):
            try:
                seg = integrate_geodesic(metric, x, d, length)
                break
            except StiffnessError:
                continue  # geodesic escapes just past the target; shoot shorter
        if seg is None:
            raise StiffnessError("shooting integration failed at every overshoot")
        s_star, miss = _closest_approach(seg, y)
        return seg, s_star, miss

    best = None  # (segment, s_star, miss) of the closest shot so far
    shots = {}  # residual by the exact bytes of u: the solver revisits points

    def residual(u):
        key = u.tobytes()
        if key not in shots:
            shots[key] = miss_vector(u)
        return shots[key].copy()

    def miss_vector(u):
        nonlocal best
        if not np.all(np.isfinite(u)):
            return np.full(n, 1e6)
        try:
            seg, s_star, miss = shoot(u)
        except DomainError:
            return np.full(n, 1e6)
        if best is None or miss < best[2]:
            best = (seg, s_star, miss)
        return seg.position(s_star) - y

    def hit():
        return best is not None and best[2] <= tol

    # the straight chord already hits on projectively flat metrics
    residual(np.zeros(n - 1))
    for start in ([np.zeros(n - 1)] +
                  [0.1 * e for e in np.eye(n - 1)] + [-0.1 * e for e in np.eye(n - 1)]):
        if hit():
            break
        try:
            optimize.least_squares(residual, start, method="lm", xtol=1e-15,
                                   ftol=1e-15, gtol=1e-15, max_nfev=max_nfev,
                                   diff_step=1e-8)
        except DomainError:
            continue
    if not hit():
        raise ConnectivityError(
            f"no geodesic from {x.tolist()} to {y.tolist()} within tolerance "
            f"{tol:g}", best_miss=None if best is None else best[2])
    segment = best[0].clipped(best[1])
    miss = float(np.linalg.norm(segment.position(segment.s_max) - y))
    return BVPResult(segment, miss, evals)


def finsler_distance(metric, x, y, tol=1e-8) -> float:
    """Induced distance d(x, y), the length of the connecting geodesic.

    Asymmetric in general: d(x, y) and d(y, x) differ whenever F is only
    positively homogeneous.
    """
    x = metric.check_point(as_coords(x))
    y = metric.check_point(as_coords(y))
    if np.array_equal(x, y):
        return 0.0
    return connect(metric, x, y, tol=tol).segment.length
