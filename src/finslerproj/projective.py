"""Schwarzian derivative, Moebius-group utilities, and the projective
normal parameter of a geodesic.

The parameter pi solves {pi, s} = q with q = 2 Ric / (n - 1) along a
unit-speed geodesic. The third-order Schwarzian equation is never solved
directly: with w'' + q w / 2 = 0 and basis solutions w1(s0)=0, w1'(s0)=1,
w2(s0)=1, w2'(s0)=0, the ratio pi = w1/w2 solves it with pi(s0) = 0,
pi'(s0) = 1, and the Moebius freedom is exactly the freedom of basis. q is a
spline, so the linear equation is solved exactly piece by piece by power
series. Poles of w2 split the segment into Moebius charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy import interpolate, optimize

from .curvature import ricci_scalar_batch
from .diffengine import Jet
from .errors import (ChartError, ConstructionError, CriticalPointError, DomainError,
                     PoleError)
from .geodesics import GeodesicSegment


# ======================================================================
# Moebius transforms
# ======================================================================

@dataclass(frozen=True)
class MobiusTransform:
    """t -> (a t + b) / (c t + d), normalized to |ad - bc| = 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det == 0.0 or not math.isfinite(det):
            raise ConstructionError("Moebius transform needs ad - bc nonzero and finite")
        scale = math.sqrt(abs(det))
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) / scale)

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    def __call__(self, t):
        return self.apply(t)

    def apply(self, t):
        den = self.c * t + self.d
        if isinstance(t, Jet):
            return (self.a * t + self.b) / den
        if abs(den) < 1e-14 * (abs(self.c * t) + abs(self.d) + 1.0):
            raise PoleError(f"Moebius transform evaluated at its pole t={t}")
        return (self.a * t + self.b) / den

    @property
    def pole(self) -> float:
        if self.c == 0.0:
            return math.inf
        return -self.d / self.c

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MobiusTransform") -> "MobiusTransform":
        """self after other: (self o other)(t)."""
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    # -- canonical members -------------------------------------------------

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def swap(cls):
        """Orientation reversal u -> -u of the interval."""
        return cls(-1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, tau):
        """Hyperbolic self-map of (-1, 1) fixing the endpoints.

        In artanh coordinates this is a shift by tau; as a Moebius map it is
        u -> (u + tanh tau) / (1 + u tanh tau).
        """
        lam = math.tanh(tau)
        return cls(1.0, lam, lam, 1.0)

    @classmethod
    def interval_onto(cls, lo, hi):
        """Affine map of (-1, 1) onto (lo, hi)."""
        if not lo < hi:
            raise DomainError("interval_onto needs lo < hi")
        return cls(0.5 * (hi - lo), 0.5 * (hi + lo), 0.0, 1.0)


def cross_ratio(t1, t2, t3, t4) -> float:
    """(t1 - t3)(t2 - t4) / ((t1 - t4)(t2 - t3))."""
    num = (t1 - t3) * (t2 - t4)
    den = (t1 - t4) * (t2 - t3)
    if den == 0.0:
        raise DomainError("degenerate four-point configuration")
    return num / den


# ======================================================================
# Schwarzian derivative
# ======================================================================

_CRITICAL_SLOPE = 1e-9


def _schwarzian_from_derivs(d1, d2, d3, t):
    if abs(d1) < _CRITICAL_SLOPE:
        raise CriticalPointError(f"first derivative {d1:.2e} vanishes near t={t}")
    r2 = d2 / d1
    return d3 / d1 - 1.5 * r2 * r2


def _derivatives(f, t, step):
    """f and its first three derivatives at t: by a forward Taylor jet where
    the callable f takes one, else by the central stencils of schwarzian_fd."""
    try:
        jet = f(Jet.variable(float(t), 3))
    except (TypeError, AttributeError):
        jet = None
    if isinstance(jet, Jet):
        return jet.coef[0], jet.coef[1], 2.0 * jet.coef[2], 6.0 * jet.coef[3]
    return _stencil_derivatives(f, t, step)


def schwarzian(f, t, *, step=0.02) -> float:
    """Schwarzian derivative {f, t} = f'''/f' - 3/2 (f''/f')^2.

    f may be a callable or a (t_samples, f_samples) pair of dense samples.
    Callables are differentiated by a forward Taylor jet when they accept
    one, with a high-order central stencil as the fallback.
    """
    if not callable(f):
        ts, vs = f
        spline = interpolate.make_interp_spline(np.asarray(ts, float),
                                                np.asarray(vs, float), k=5)
        return _schwarzian_from_derivs(float(spline(t, 1)), float(spline(t, 2)),
                                       float(spline(t, 3)), t)
    return _schwarzian_from_derivs(*_derivatives(f, t, step)[1:], t)


# 9-point O(h^6) central stencils for orders 1..3
_STENCIL9 = {
    1: np.array([0.0, -1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60, 0.0]),
    2: np.array([0.0, 1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90, 0.0]),
    3: np.array([-7 / 240, 3 / 10, -169 / 120, 61 / 30, 0.0,
                 -61 / 30, 169 / 120, -3 / 10, 7 / 240]),
}
_OFFSETS9 = np.arange(-4.0, 5.0)


def _stencil_derivatives(f, t, step):
    vals = np.array([float(f(t + o * step)) for o in _OFFSETS9])
    return (float(vals[4]), float(_STENCIL9[1] @ vals) / step,
            float(_STENCIL9[2] @ vals) / step ** 2, float(_STENCIL9[3] @ vals) / step ** 3)


def schwarzian_fd(f, t, step=0.02) -> float:
    """Finite-difference Schwarzian for black-box callables."""
    return _schwarzian_from_derivs(*_stencil_derivatives(f, t, step)[1:], t)


def check_composition(f, g, t, *, step=0.02) -> float:
    """Residual of the chain rule {f o g, t} = {f, g(t)} (g'(t))^2 + {g, t}."""
    lhs = schwarzian(lambda u: f(g(u)), t, step=step)
    gt, dg = _derivatives(g, t, step)[:2]
    rhs = schwarzian(f, gt, step=step) * dg * dg + schwarzian(g, t, step=step)
    return abs(lhs - rhs)


# ======================================================================
# Projective parameter
# ======================================================================

class ProjectiveParameter:
    """Projective normal parameter along a geodesic segment, exact piece by piece.

    Carries the curvature samples q(s), the basis solutions (w1, w2) with
    their derivatives as one power series per piece, the pole locations of
    w2, and evaluation of pi = w1/w2 with its derivative. pi is
    Moebius-chart-valid only between consecutive poles.
    """

    def __init__(self, segment, s0, s_grid, q_values, breaks, coefs):
        self.segment = segment
        self.s0 = float(s0)
        self.s_grid = np.asarray(s_grid)
        self.q_values = np.asarray(q_values)
        self._breaks = breaks   # (P + 1,) piece ends
        self._widths = np.diff(breaks)
        self._coefs = coefs     # (P, 4, M): basis rows in powers of the local u in [0, 1]
        self._w2_scale = max(1.0, float(np.abs(self.basis(self.s_grid)[2]).max()))
        # a piece holds at most one zero of w2, so sign changes find them all
        w2 = self.basis(breaks)[2]
        self.poles = []
        for a, b, fa, fb in zip(breaks, breaks[1:], w2, w2[1:]):
            if fa == 0.0:
                self.poles.append(float(a))
            elif fa * fb < 0.0:
                self.poles.append(_root(lambda s: self.basis(s)[2], a, b))

    # -- raw solutions ----------------------------------------------------

    def basis(self, s):
        """(w1, w1', w2, w2') at s; a (4, N) array for an array of N values."""
        ss = np.asarray(s, dtype=float)
        flat = np.atleast_1d(ss)
        x = self._breaks
        i = np.searchsorted(x[1:-1], flat, side="right")
        powers = np.vander((flat - x[i]) / self._widths[i], self._coefs.shape[2],
                           increasing=True)
        out = (self._coefs[i] * powers[:, None, :]).sum(axis=2).T
        return out[:, 0] if ss.ndim == 0 else out

    def wronskian_drift(self, max_scale=1e3, points=200) -> float:
        """Worst deviation of the Wronskian from its initial value 1.

        Measured where the basis magnitude stays below max_scale; past that
        the bilinear form w1' w2 - w1 w2' sits on the floating-point
        cancellation floor and conservation is no longer observable.
        """
        w = self.basis(np.linspace(self.s_min, self.s_max, points))
        drift = np.abs(w[1] * w[2] - w[0] * w[3] - 1.0)
        return float(drift[np.abs(w).max(axis=0) <= max_scale].max(initial=0.0))

    # -- charts -------------------------------------------------------------

    @property
    def s_min(self):
        return self.segment.s_min

    @property
    def s_max(self):
        return self.segment.s_max

    def chart_interval(self, s):
        """Maximal pole-free parameter interval containing s."""
        s = float(s)
        for p in self.poles:
            if abs(s - p) < 1e-9:
                raise ChartError(f"s={s} sits at the pole {p}")
        lo = self.s_min
        hi = self.s_max
        for p in self.poles:
            if p < s:
                lo = max(lo, p)
            else:
                hi = min(hi, p)
        return lo, hi

    def same_chart(self, s_values) -> bool:
        charts = {self.chart_interval(s) for s in s_values}
        return len(charts) == 1

    def value(self, s) -> float:
        """pi(s) = w1/w2; raises ChartError at (or numerically on) a pole."""
        w1, _, w2, _ = self.basis(s)
        if abs(w2) < 1e-12 * self._w2_scale:
            nearest = min(self.poles, key=lambda p: abs(p - s)) if self.poles else s
            raise ChartError(f"pi evaluated at the pole near s={nearest}")
        return float(w1 / w2)

    def derivative(self, s) -> float:
        """pi'(s), computed from the Wronskian identity pi' = W / w2^2."""
        w1, dw1, w2, dw2 = self.basis(s)
        return float((dw1 * w2 - w1 * dw2) / (w2 * w2))

    def chart_range(self, s):
        """Image of the chart containing s under pi, as an open interval.

        Pole ends map to +-inf according to the sign of the approach.
        """
        lo, hi = self.chart_interval(s)
        if any(abs(lo - p) < 1e-12 for p in self.poles):
            left = -math.inf if self.derivative(s) > 0 else math.inf
        else:
            left = self.value(lo)
        if any(abs(hi - p) < 1e-12 for p in self.poles):
            right = math.inf if self.derivative(s) > 0 else -math.inf
        else:
            right = self.value(hi)
        if left > right:
            left, right = right, left
        return float(left), float(right)

    def solve_value(self, target, s_hint) -> float:
        """Invert pi on the chart containing s_hint (pi is monotone there).

        The root of w1 - target w2, which stays finite at pole ends, on the
        piece where it changes sign.
        """
        lo, hi = self.chart_interval(s_hint)
        x = self._breaks
        ends = np.concatenate([[lo], x[(x > lo) & (x < hi)], [hi]])
        w = self.basis(ends)
        g = w[0] - target * w[2]
        change = np.flatnonzero(g[:-1] * g[1:] <= 0.0)
        if change.size == 0:
            raise ChartError(f"target {target} outside the chart range")
        j = int(change[0])

        def f(s):
            w1, _, w2, _ = self.basis(s)
            return float(w1 - target * w2)

        return _root(f, ends[j], ends[j + 1])


def _root(f, a, b) -> float:
    return float(optimize.brentq(f, a, b, xtol=1e-14, rtol=8.9e-16))


def _q_window(metric, segment, margin_fraction=1e-6, drift_limit=1e-6):
    """Sub-span of the segment where curvature samples are trustworthy.

    Two trims: the segment data itself must still be healthy (unit-speed
    residual within drift_limit; maximal extensions end at boundary slivers
    or chart escapes where the last steps sit at the precision edge), and
    finite-difference sprays additionally need stencil room away from a
    domain boundary. Jet-backed sprays need no stencil room.
    """
    lo, hi = segment.s_min, segment.s_max
    ss = np.linspace(lo, hi, 201)
    needs_room = metric.bounded_domain and not metric.spray_supports_jets
    threshold = margin_fraction * metric.domain_scale
    n = metric.dimension
    states = segment.states(ss)

    def healthy(i):
        # judged only when the walk out from the anchor reaches sample i
        x, v = states[i, :n], states[i, n:]
        try:
            if abs(metric.norm(x, v) - 1.0) > drift_limit:
                return False
            if needs_room and metric.domain_value(x) < threshold:
                return False
        except Exception:
            return False
        return True

    anchor = int(np.argmin(np.abs(ss)))
    if not healthy(anchor):
        return lo, hi
    a = anchor
    while a > 0 and healthy(a - 1):
        a -= 1
    b = anchor
    while b < len(ss) - 1 and healthy(b + 1):
        b += 1
    return float(ss[a]), float(ss[b])


# degree of the power series of w on each piece; with h sqrt(max|q| / 2) <= 1
# the first dropped term is of order 1/25! of the basis
SERIES_DEGREE = 24


def projective_parameter(metric, segment: GeodesicSegment, *, s0=0.0,
                         q_step=0.25) -> ProjectiveParameter:
    """Solve for the projective normal parameter along a unit-speed segment.

    q(s) = 2 Ric(x(s), x'(s)) / (n - 1) is sampled on a uniform grid and
    splined; on the sliver where the segment runs closer to the domain
    boundary than the curvature stencils allow, q is held at the spline's
    value at the nearest window end. On each spline piece q is a polynomial,
    so w'' = -q w / 2 is solved there exactly by power series (the Taylor
    method), on pieces short enough that w2 has at most one zero on each
    (Sturm separation). The pieces are chained by 2x2 transfer matrices
    outward from s0, where pi(s0) = 0 and pi'(s0) = 1.
    """
    n = metric.dimension
    lo, hi = segment.s_min, segment.s_max
    if not lo <= s0 <= hi:
        raise DomainError(f"normalization point s0={s0} must lie inside the segment")
    q_lo, q_hi = _q_window(metric, segment)
    span = (q_hi - q_lo) / q_step
    if not span < 65536:  # 16384 units of arc length at the default step
        raise DomainError(f"q on [{q_lo!r}, {q_hi!r}] needs over 65536 samples")
    count = max(9, int(math.ceil(span)) + 1)
    s_grid = np.linspace(q_lo, q_hi, count)
    states = segment.states(s_grid)
    q_values = 2.0 / (n - 1) * ricci_scalar_batch(metric, states[:, :n], states[:, n:])
    k = min(5, count - 1)
    q_spline = interpolate.make_interp_spline(s_grid, q_values, k=k)

    def scaled_taylor(starts, h):
        """Coefficients Q_i h^i of q(start + h u) in powers of u, clamped
        to a constant outside the window."""
        inside = (starts >= q_lo) & (starts < q_hi)
        at = np.clip(starts, q_lo, q_hi)
        return np.stack([q_spline(at)] + [
            np.where(inside, q_spline(at, nu=i), 0.0) * h ** i / math.factorial(i)
            for i in range(1, k + 1)], axis=1)

    knots = q_spline.t[(q_spline.t >= q_lo) & (q_spline.t <= q_hi)]
    base = np.unique(np.concatenate([knots, [lo, hi, s0]]))
    h = np.diff(base)
    bound = np.abs(scaled_taylor(base[:-1], h)).sum(axis=1)    # >= max |q| on the piece
    if not np.all(np.isfinite(bound)):  # a span too short for the q spline, say
        raise DomainError(f"q has no finite bound on the pieces of [{lo!r}, {hi!r}]")
    splits = np.maximum(1, np.ceil(h * np.sqrt(0.5 * bound))).astype(int)
    breaks = np.concatenate([np.linspace(a, b, m, endpoint=False)
                             for a, b, m in zip(base, base[1:], splits)] + [[hi]])

    # unit solutions (w, w') = (1, 0) and (0, 1) at each piece start, in u
    h = np.diff(breaks)
    Q = scaled_taylor(breaks[:-1], h)
    M = SERIES_DEGREE + 1
    d = np.zeros((h.size, 2, M))
    d[:, 0, 0] = 1.0
    d[:, 1, 1] = h
    for m in range(M - 2):
        j = min(m, k)
        conv = (Q[:, None, :j + 1] * d[:, :, m - j:m + 1][:, :, ::-1]).sum(axis=2)
        d[:, :, m + 2] = -0.5 * (h * h)[:, None] * conv / ((m + 2) * (m + 1))
    dd = np.zeros_like(d)
    dd[:, :, :-1] = d[:, :, 1:] * np.arange(1, M) / h[:, None, None]
    unit = np.stack([d, dd], axis=1)          # (P, value/slope, A/B, M)
    transfer = unit.sum(axis=3)               # (P, 2, 2), determinant 1

    # states [[w1, w2], [w1', w2']] at the breaks, propagated outward from s0;
    # backward through the adjugate, never by inverting a fundamental matrix
    k0 = int(np.searchsorted(breaks, s0))
    S = np.empty((breaks.size, 2, 2))
    S[k0] = [[0.0, 1.0], [1.0, 0.0]]
    for i in range(k0, h.size):
        S[i + 1] = transfer[i] @ S[i]
    for i in range(k0 - 1, -1, -1):
        (a, b), (c, e) = transfer[i]
        S[i] = np.array([[e, -b], [-c, a]]) @ S[i + 1]
    coefs = np.einsum("pjc,prjm->pcrm", S[:-1], unit).reshape(h.size, 4, M)
    return ProjectiveParameter(segment, s0, s_grid, q_values, breaks, coefs)


# ======================================================================
# Projective invariance cross-check
# ======================================================================

def invariance_cross_check(metric_a, metric_b, x0, direction, probe_arclengths,
                           *, cap=20.0) -> float:
    """Cross-ratio comparison of the projective parameters of two metrics
    sharing a straight-line geodesic through x0.

    The probes are arc lengths of metric_a; the corresponding points are
    located on metric_b's geodesic through the same chart coordinate along
    the line. Moebius-related parameters have equal cross-ratios; the
    residual is their difference.
    """
    from .geodesics import extend_geodesic

    probes = sorted(float(s) for s in probe_arclengths)
    if len(probes) != 4:
        raise ConstructionError("exactly 4 probe arc-lengths are needed")
    x0 = np.asarray(x0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    unit = direction / np.linalg.norm(direction)

    seg_a = extend_geodesic(metric_a, x0, direction, cap=cap)
    seg_b = extend_geodesic(metric_b, x0, direction, cap=cap)
    par_a = projective_parameter(metric_a, seg_a)
    par_b = projective_parameter(metric_b, seg_b)

    if not par_a.same_chart(probes):
        raise ChartError("probes do not sit inside one Moebius chart of metric_a")

    def along(seg, s):
        return float((seg.position(s) - x0) @ unit)

    pa, pb = [], []
    sb_values = []
    for s in probes:
        t = along(seg_a, s)
        sb = optimize.brentq(lambda ss: along(seg_b, ss) - t,
                             seg_b.s_min, seg_b.s_max, xtol=1e-13)
        sb_values.append(sb)
        pa.append(par_a.value(s))
        pb.append(par_b.value(sb))
    if not par_b.same_chart(sb_values):
        raise ChartError("probes do not sit inside one Moebius chart of metric_b")
    return abs(cross_ratio(*pa) - cross_ratio(*pb))
