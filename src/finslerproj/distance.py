"""Interval Funk distance, chains of projective maps, the pseudo-distance
upper estimator, and the Schwarz-type inequality checkers.

The estimator is honest about its semantics: chains are constructive, so the
reported value is always an upper estimate of the chain infimum, never a
certificate. The inequality checkers are report-only; a flagged violation is
a finding, not an error. They evaluate the bound with both of the two
constants in circulation (2c/(sqrt(n-1) k) and c/(sqrt(n-1) k)) and record
which one the measurements support.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import _Report, positive_finite
from .curvature import check_ricci_bound
from .errors import (ConstructionError, DomainError,
                     HypothesisError, InadmissibleChartError)
from .geodesics import (EXTENSION_CAP, GeodesicSegment, connect,
                        extend_geodesic, finsler_distance)
from .metrics import interval_funk_eval
from .projective import MobiusTransform, ProjectiveParameter, projective_parameter

# hyperbolic-translation reach of the chart search; tanh(12) keeps the
# translated endpoints representable inside (-1, 1) and the chart round trip
# well inside the chain-link validation tolerance
TAU_MAX = 12.0
SEGMENT_SAMPLES = 7  # interior points of a segment where the Ricci bound is sampled


# ======================================================================
# Interval Funk distance
# ======================================================================

def funk_distance_interval(a, b, k=1.0) -> float:
    """Closed-form Funk distance on (-1, 1).

    D(a, b) = (|ln((1-a)(1+b) / ((1-b)(1+a)))| + ln((1-a^2)/(1-b^2))) / (2k);
    equals ln((1-a)/(1-b))/k forward and ln((1+a)/(1+b))/k backward, the
    oriented line integrals of the interval Funk norm.
    """
    a, b = float(a), float(b)
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise DomainError(f"interval pair ({a}, {b}) outside (-1, 1)")
    return _funk_interval(a, b, positive_finite(k, "the Funk constant k"))


def _funk_interval(a, b, k) -> float:
    """The closed form of funk_distance_interval on validated floats."""
    if a == b:
        return 0.0
    odd = math.log((1.0 - a) * (1.0 + b) / ((1.0 - b) * (1.0 + a)))
    even = math.log((1.0 - a * a) / (1.0 - b * b))
    # the closed form is nonnegative; clamp the float cancellation floor
    return max(0.0, (abs(odd) + even) / (2.0 * k))


# ======================================================================
# Chains
# ======================================================================

@dataclass
class ChainLink:
    """One projective map f: I -> M with its interval endpoints.

    f(u) is the point of the maximally extended geodesic at the parameter s
    with pi(s) = chart(u). The chart is applied in stages: the swap u -> -u
    if `swapped`, the hyperbolic translation by `tau`, then the Moebius map
    `base` of I into the range of pi on one chart (the composed matrix loses
    to cancellation at extreme tau what validation needs). Endpoint
    consistency (f(a), f(b) against the stored waypoints) is validated at
    construction.
    """

    geodesic: GeodesicSegment
    parameter: ProjectiveParameter
    base: MobiusTransform
    a: float
    b: float
    k: float
    start_point: np.ndarray
    end_point: np.ndarray
    tau: float = 0.0
    swapped: bool = False

    def __post_init__(self):
        if not (abs(self.a) < 1.0 and abs(self.b) < 1.0):
            raise ConstructionError("chain-link endpoints must lie inside (-1, 1)")
        self.start_point = np.asarray(self.start_point, dtype=float)
        self.end_point = np.asarray(self.end_point, dtype=float)
        if self.degenerate:
            return
        self._validate_chart()
        # rejected chart-search candidates mostly miss the start: check it first
        for u, point in ((self.a, self.start_point), (self.b, self.end_point)):
            if np.abs(self.map_point(u) - point).max() > 1e-6:
                raise ConstructionError("chart endpoints do not reproduce the link waypoints")

    @property
    def degenerate(self) -> bool:
        return self.a == self.b and np.array_equal(self.start_point, self.end_point)

    @property
    def chart(self) -> MobiusTransform:
        """The composed chart matrix, for the pole check and the report."""
        m = self.base.compose(MobiusTransform.translation(self.tau))
        if self.swapped:
            m = m.compose(MobiusTransform.swap())
        return m

    def apply_chart(self, u) -> float:
        """chart(u), stage by stage."""
        uu = -u if self.swapped else u
        lam = math.tanh(self.tau)
        uu = (uu + lam) / (1.0 + lam * uu)
        return self.base.apply(uu)

    def chart_slope(self, u) -> float:
        """d chart / du, staged like apply_chart."""
        sign = -1.0 if self.swapped else 1.0
        uu = sign * u
        lam = math.tanh(self.tau)
        t = (uu + lam) / (1.0 + lam * uu)
        dt = (1.0 - lam * lam) / (1.0 + lam * uu) ** 2
        den = self.base.c * t + self.base.d
        return self.base.determinant / (den * den) * dt * sign

    def _validate_chart(self):
        lo, hi = self.parameter.chart_range(self.parameter.s0)
        pole = self.chart.pole
        if -1.0 <= pole <= 1.0:
            raise InadmissibleChartError(
                "chart has a pole inside the interval", attainable_range=(lo, hi))
        images = sorted((self.apply_chart(-1.0 + 1e-15), self.apply_chart(1.0 - 1e-15)))
        if images[0] < lo - 1e-9 or images[1] > hi + 1e-9:
            raise InadmissibleChartError(
                f"chart image ({images[0]}, {images[1]}) exceeds the parameter "
                f"range ({lo}, {hi})", attainable_range=(lo, hi))

    def parameter_of(self, u) -> float:
        """Arc length s with pi(s) = chart(u)."""
        return self.parameter.solve_value(self.apply_chart(u), self.parameter.s0)

    def map_point(self, u) -> np.ndarray:
        """The projective map f(u) on M."""
        if self.degenerate:
            return self.start_point.copy()
        return self.geodesic.position(self.parameter_of(u))

    @property
    def funk_length(self) -> float:
        return funk_distance_interval(self.a, self.b, self.k)

    @classmethod
    def degenerate_link(cls, point, k=1.0):
        point = np.asarray(point, dtype=float)
        return cls(geodesic=None, parameter=None, base=MobiusTransform.identity(),
                   a=0.0, b=0.0, k=k, start_point=point, end_point=point)


@dataclass
class Chain:
    """An ordered chain of projective-map links joining two points."""

    links: list
    waypoints: list

    def __post_init__(self):
        if len(self.waypoints) != len(self.links) + 1:
            raise ConstructionError("a chain needs one more waypoint than links")
        for link, w0, w1 in zip(self.links, self.waypoints, self.waypoints[1:]):
            if (np.abs(link.start_point - np.asarray(w0, float)).max() > 1e-9
                    or np.abs(link.end_point - np.asarray(w1, float)).max() > 1e-9):
                raise ConstructionError("consecutive links must share waypoints")

    @property
    def length(self) -> float:
        return sum(link.funk_length for link in self.links)

    def to_dict(self):
        """The links as plain data: a list, a report's `chain` entry."""
        return [{"a": link.a, "b": link.b, "k": link.k, "funk_length": link.funk_length,
                 "chart": asdict(link.chart)} for link in self.links]


# ======================================================================
# Pseudo-distance upper estimator
# ======================================================================

@dataclass(frozen=True)
class PseudoDistanceOptions:
    """Estimator knobs: subdivision depth, chart-search budget, Funk constant,
    and an optional Ricci-bound constant enabling the lower-bound fields."""

    segments: int = 1
    budget: int = 48
    k: float = 1.0
    c: float | None = None

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.segments, self.budget)):
            raise ConstructionError("subdivision depth and search budget must be integers")
        if not 1 <= self.segments <= 4:
            raise ConstructionError("subdivision depth is limited to 1..4 segments")
        if self.budget < 1:
            raise ConstructionError("search budget must be positive")
        positive_finite(self.k, "the Funk constant k")
        if self.c is not None:
            positive_finite(self.c, "the Ricci bound constant c")


@dataclass
class PseudoDistanceReport(_Report):
    """Upper estimate of the chain pseudo-distance between two points.

    `estimate` is the best (smallest) chain value found by the chart search;
    `canonical_value` is the untranslated chart's value, reported alongside
    because the chart family drives single-link values toward zero and the
    canonical member is the reproducible reference; `canonical_chain` is
    that member's single-link chain, kept for the checkers and left out of
    the dict. `estimate_cap_bound` is set when a link of `chain` took its
    chart member from a golden bracket ending at +-TAU_MAX: the estimate
    then measures the search's reach, not the pair. Lower-bound fields are
    filled only when a Ricci-bound constant is supplied and its hypothesis
    check passes; the inequality comparisons are recorded, not enforced.
    """

    x: np.ndarray
    y: np.ndarray
    estimate: float
    canonical_value: float
    chain: Chain | None
    evaluations: int
    budget: int
    geodesic_distance: float | None = None
    lower_bound: float | None = None
    lower_bound_alternate: float | None = None
    hypothesis_passed: bool | None = None
    estimate_above_lower_bound: bool | None = None
    canonical_above_lower_bound: bool | None = None
    canonical_chain: Chain | None = None
    estimate_cap_bound: bool = False
    _hidden = ("canonical_chain",)


def _canonical_chart(par: ProjectiveParameter, p_x, p_y) -> MobiusTransform:
    """Deterministic Moebius map of I into the chart range around the endpoints.

    Finite range ends map affinely onto the range; an infinite end is
    truncated at 100 spans beyond the endpoint values.
    """
    lo, hi = par.chart_range(par.s0)
    span = max(abs(p_y - p_x), 1.0)
    if not math.isfinite(lo):
        lo = min(p_x, p_y) - 100.0 * span
    if not math.isfinite(hi):
        hi = max(p_x, p_y) + 100.0 * span
    return MobiusTransform.interval_onto(lo, hi)


def _golden_min(fn, lo, hi, iterations):
    """Golden-section minimization of fn on [lo, hi]: every evaluation as
    (fn(t), t), in the order made."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = fn(c), fn(d)
    evaluations = [(fc, c), (fd, d)]
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = fn(c)
            evaluations.append((fc, c))
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = fn(d)
            evaluations.append((fd, d))
    return evaluations


def _line(metric, x, y):
    """The geodesic segment from x to y, its maximal extension and its
    projective parameter normalized at x."""
    seg = connect(metric, x, y).segment
    cap = max(EXTENSION_CAP, seg.length + 1.0)
    ext = extend_geodesic(metric, x, seg.velocity(0.0), cap=cap)
    return seg, ext, projective_parameter(metric, ext)


def _link_search(ext, par, s_x, s_y, x, y, options, canonical_chain=False):
    """Best link from x = ext(s_x) to y = ext(s_y) over the admissible chart
    family of the chart through par.s0, and the canonical chain if asked."""
    lo_chart, hi_chart = par.chart_interval(par.s0)
    if not (lo_chart <= s_x <= hi_chart and lo_chart <= s_y <= hi_chart):
        attainable = par.chart_range(par.s0)
        raise InadmissibleChartError(
            f"no single Moebius chart covers both endpoints; the chart through "
            f"the source spans parameters {attainable}", attainable_range=attainable)
    p_x, p_y = par.value(s_x), par.value(s_y)
    base = _canonical_chart(par, p_x, p_y)
    u_x, u_y = map(base.inverse().apply, (p_x, p_y))

    def pullback(tau, swapped):
        """Endpoints (a, b) of the chart member, staged: the composed matrix
        loses to cancellation at extreme translations what validation needs."""
        lam = math.tanh(tau)
        a = (u_x - lam) / (1.0 - lam * u_x)
        b = (u_y - lam) / (1.0 - lam * u_y)
        return (-a, -b) if swapped else (a, b)

    def objective(tau, swapped):
        a, b = pullback(tau, swapped)
        if not (abs(a) < 1.0 and abs(b) < 1.0):
            return math.inf
        return _funk_interval(a, b, options.k)

    # (value, tau, swapped) of every evaluation, in the order made: the sort
    # below is stable, so the order decides ties
    canonical = objective(0.0, False)
    candidates = [(canonical, 0.0, False)]
    thirds = np.linspace(-TAU_MAX, TAU_MAX, 4)
    for swapped in (False, True):
        candidates.append((objective(0.0, swapped), 0.0, swapped))
        for lo, hi in zip(thirds, thirds[1:]):
            candidates += [(val, tau, swapped) for val, tau in _golden_min(
                lambda t: objective(t, swapped), lo, hi, options.budget)]

    def materialize(tau, swapped):
        a, b = pullback(tau, swapped)
        link = ChainLink(geodesic=ext, parameter=par, base=base, a=a, b=b, k=options.k,
                         start_point=x, end_point=y, tau=tau, swapped=swapped)
        return Chain(links=[link], waypoints=[x, y])

    # best candidate whose chain passes the endpoint validation; the canonical
    # member is one of them, so if none passes, it failed too
    for best, tau, swapped in sorted(candidates, key=lambda c: c[0]):
        try:
            chain = materialize(tau, swapped)
            break
        except ConstructionError as exc:
            if tau == 0.0 and not swapped:
                canonical_error = exc
    else:
        raise canonical_error
    return {
        "best": best,
        "canonical": canonical,
        "chain": chain,
        "canonical_chain": materialize(0.0, False) if canonical_chain else None,
        "evaluations": len(candidates),
    }


def _cap_bound(chain) -> bool:
    """Whether some link's accepted chart member comes from a golden bracket
    that ends at +-TAU_MAX, where the interval Funk length keeps falling
    toward the search's reach."""
    return any(abs(link.tau) > TAU_MAX / 3.0 for link in chain.links)


def pseudo_distance_upper(metric, x, y, options: PseudoDistanceOptions | None = None
                          ) -> PseudoDistanceReport:
    """Upper estimate of the chain pseudo-distance from x to y.

    Builds the single-segment chain through the connecting geodesic and
    minimizes the interval Funk length over the admissible chart family
    (hyperbolic translations of the interval plus the orientation swap) by
    golden-section search. With segments=m it also splits the geodesic at
    m - 1 equally spaced waypoints, for every m up to the requested depth,
    and searches each sub-link on the same extension and projective
    parameter; the smallest total wins. The result over-estimates the chain
    infimum by construction. Increasing the budget never increases the
    estimate.
    """
    options = options or PseudoDistanceOptions()
    x = metric.check_point(x)
    y = metric.check_point(y)
    if np.array_equal(x, y):
        link = ChainLink.degenerate_link(x, k=options.k)
        chain = Chain(links=[link], waypoints=[x, x])
        return PseudoDistanceReport(x=x, y=y, estimate=0.0, canonical_value=0.0,
                                    chain=chain, evaluations=0, budget=options.budget,
                                    geodesic_distance=0.0, canonical_chain=chain)

    seg, ext, par = _line(metric, x, y)
    L = seg.length
    single = _link_search(ext, par, 0.0, L, x, y, options, canonical_chain=True)
    best = single["best"]
    chain = single["chain"]
    evaluations = single["evaluations"]

    for m in range(2, options.segments + 1):
        fractions = np.linspace(0.0, 1.0, m + 1)
        waypoints = [seg.position(f * L) for f in fractions]
        links = []
        total = 0.0
        for f0, f1, w0, w1 in zip(fractions, fractions[1:], waypoints, waypoints[1:]):
            sub = _link_search(ext, par, f0 * L, f1 * L, w0, w1, options)
            links.append(sub["chain"].links[0])
            total += sub["best"]
            evaluations += sub["evaluations"]
        if total < best:
            best = total
            chain = Chain(links=links, waypoints=list(waypoints))

    report = PseudoDistanceReport(x=x, y=y, estimate=best,
                                  canonical_value=single["canonical"],
                                  chain=chain, evaluations=evaluations,
                                  budget=options.budget, geodesic_distance=L,
                                  canonical_chain=single["canonical_chain"],
                                  estimate_cap_bound=_cap_bound(chain))
    if options.c is not None:
        _attach_lower_bounds(metric, report, seg, options)
    return report


def _attach_lower_bounds(metric, report, segment, options):
    n = metric.dimension
    samples = _segment_line_elements(metric, segment)
    bound = check_ricci_bound(metric, samples, options.c)
    report.hypothesis_passed = bound.passed
    if not bound.passed:
        return
    d = report.geodesic_distance
    factor = options.c / (math.sqrt(n - 1) * options.k)
    report.lower_bound = 2.0 * factor * d
    report.lower_bound_alternate = factor * d
    report.estimate_above_lower_bound = report.estimate >= report.lower_bound - 1e-12
    report.canonical_above_lower_bound = report.canonical_value >= report.lower_bound - 1e-12


def _segment_line_elements(metric, segment):
    n = metric.dimension
    ss = np.linspace(segment.s_min, segment.s_max, SEGMENT_SAMPLES + 2)[1:-1]
    states = segment.states(np.append(ss, 0.5 * (segment.s_min + segment.s_max)))
    out = []
    for st in states[:-1]:
        out += [(st[:n], st[n:]), (st[:n], -st[n:])]
    return out + [(states[-1, :n], d) for d in np.eye(n)]


# ======================================================================
# Schwarz-ratio and corollary checkers (report-only)
# ======================================================================

NO_INTERIOR_MAXIMUM = "no interior maximum"


@dataclass
class SchwarzReport(_Report):
    """Pullback-to-interval length-element ratio h along a projective map.

    `passed` compares the empirical sup of h against k sqrt(n-1) / (2c);
    a failure is a finding about the printed bound, never an exception.
    """

    grid: np.ndarray
    h_values: np.ndarray
    empirical_sup: float
    sup_at: float
    bound: float
    passed: bool
    monotonicity: str
    c: float
    k: float


def _require_ricci_bound(metric, link, c):
    samples = _segment_line_elements(metric, link.geodesic)
    report = check_ricci_bound(metric, samples, c)
    if not report.passed:
        raise HypothesisError(
            f"hypothesis not satisfied: Ric_ij <= -c^2 g_ij fails for c={c} "
            f"(worst eigenvalue {report.worst:.3e} > 0)", report=report)
    return report


def schwarz_ratio(metric, link: ChainLink, grid, c) -> SchwarzReport:
    """Ratio h(u) of the pulled-back metric length element to the interval
    Funk element along increasing u, over the given interior grid.

    Refuses (HypothesisError) unless the negative Ricci bound holds for c on
    samples along the link's geodesic. The comparison against the bound
    k sqrt(n-1)/(2c) is report-only.
    """
    c = positive_finite(c, "the Ricci bound constant c")
    if link.degenerate:
        raise DomainError("the Schwarz ratio needs a link along a geodesic, not a point")
    _require_ricci_bound(metric, link, c)
    grid = np.asarray(sorted(float(u) for u in grid))
    if grid.size == 0 or not np.all(np.abs(grid) < 1.0):  # NaN fails too
        raise DomainError("the grid must sit inside (-1, 1)")
    n = metric.dimension
    hs = []
    for u in grid:
        p = link.apply_chart(u)
        s = link.parameter.solve_value(p, link.parameter.s0)
        dpi = link.parameter.derivative(s)
        dchart = link.chart_slope(u)
        s_prime = dchart / dpi
        xx = link.geodesic.position(s)
        vv = link.geodesic.velocity(s)
        pullback = metric.norm(xx, vv * s_prime)          # F(x, dx/du)
        interval = interval_funk_eval(u, 1.0, link.k)     # forward traversal
        hs.append(pullback / interval)
    hs = np.asarray(hs)
    i = int(np.argmax(hs))
    bound = link.k * math.sqrt(n - 1) / (2.0 * c)
    if 0 < i < len(hs) - 1:
        monotonicity = f"interior maximum at u={grid[i]:.6g}"
    else:
        monotonicity = NO_INTERIOR_MAXIMUM
    return SchwarzReport(grid=grid, h_values=hs, empirical_sup=float(hs[i]),
                         sup_at=float(grid[i]), bound=bound,
                         passed=bool(hs[i] <= bound + 1e-12),
                         monotonicity=monotonicity, c=c, k=link.k)


@dataclass
class CorollaryReport(_Report):
    """Funk length of a link against the induced distance of its endpoints,
    compared with both candidate constants."""

    lhs: float
    geodesic_distance: float
    rhs: float
    rhs_alternate: float
    passed: bool
    passed_alternate: bool
    c: float
    k: float


def corollary_check(metric, link: ChainLink, c) -> CorollaryReport:
    """Compare D(a, b) with factor * d_F(f(a), f(b)) for both candidate factors.

    Report-only: both pass flags are recorded. The degenerate link compares
    zero against zero and passes.
    """
    c = positive_finite(c, "the Ricci bound constant c")
    n = metric.dimension
    lhs = link.funk_length
    if link.degenerate:
        d = 0.0
    else:
        _require_ricci_bound(metric, link, c)
        d = finsler_distance(metric, link.start_point, link.end_point)
    factor = c / (math.sqrt(n - 1) * link.k)
    rhs = 2.0 * factor * d
    rhs_alt = factor * d
    return CorollaryReport(lhs=lhs, geodesic_distance=d, rhs=rhs, rhs_alternate=rhs_alt,
                           passed=bool(lhs >= rhs - 1e-12),
                           passed_alternate=bool(lhs >= rhs_alt - 1e-12),
                           c=c, k=link.k)


# ======================================================================
# Positivity probe
# ======================================================================

@dataclass
class PositivityEntry(_Report):
    """Per-pair record. Positivity is asserted on the canonical chain value;
    the optimized estimate is reported alongside but sinks below the float
    resolution under extreme chart translations, so it carries no positivity
    information."""

    x: np.ndarray
    y: np.ndarray
    hypothesis_passed: bool
    estimate: float | None = None
    canonical_value: float | None = None
    geodesic_distance: float | None = None
    lower_bound: float | None = None
    lower_bound_alternate: float | None = None
    positive: bool | None = None
    consistent_with_bound: bool | None = None
    consistent_with_alternate: bool | None = None


@dataclass
class PositivityReport(_Report):
    entries: list = field(default_factory=list)
    _added = {"all_positive": "all_positive"}

    @property
    def all_positive(self) -> bool:
        checked = [e.positive for e in self.entries if e.positive is not None]
        return bool(checked) and all(checked)


def positivity_probe(metric, pairs, c, k=1.0, budget=48) -> PositivityReport:
    """Estimate the pseudo-distance for each pair and compare against the
    candidate lower bounds c-scaled by the induced distance.

    Pairs whose neighborhood fails the Ricci-bound hypothesis get a
    hypothesis-not-satisfied entry instead of bounds. For valid pairs the
    probe records whether the upper estimates are positive for x != y and
    which candidate constant they are consistent with.
    """
    report = PositivityReport()
    options = PseudoDistanceOptions(budget=budget, k=k, c=c)
    for x, y in pairs:
        x = metric.check_point(x)
        y = metric.check_point(y)
        if np.array_equal(x, y):
            report.entries.append(PositivityEntry(
                x=x, y=y, hypothesis_passed=True, estimate=0.0, canonical_value=0.0,
                geodesic_distance=0.0, lower_bound=0.0, lower_bound_alternate=0.0,
                positive=None, consistent_with_bound=True,
                consistent_with_alternate=True))
            continue
        pd = pseudo_distance_upper(metric, x, y, options)
        if pd.hypothesis_passed is False:
            report.entries.append(PositivityEntry(x=x, y=y, hypothesis_passed=False))
            continue
        entry = PositivityEntry(
            x=x, y=y, hypothesis_passed=bool(pd.hypothesis_passed),
            estimate=pd.estimate, canonical_value=pd.canonical_value,
            geodesic_distance=pd.geodesic_distance,
            lower_bound=pd.lower_bound, lower_bound_alternate=pd.lower_bound_alternate,
            positive=bool(pd.canonical_value > 0.0),
            consistent_with_bound=pd.estimate_above_lower_bound,
            consistent_with_alternate=(None if pd.lower_bound_alternate is None else
                                       bool(pd.estimate >= pd.lower_bound_alternate - 1e-12)))
        report.entries.append(entry)
    return report
