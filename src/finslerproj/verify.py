"""Acceptance suite: every criterion as a named, self-contained check.

Each criterion returns a CriterionResult with a machine-readable detail
dict; the CLI's verify-all command and the pytest acceptance module both run
these. All randomness is seeded here, so two runs produce identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from . import distance as dist
from .core import validate_homogeneity, validate_strong_convexity
from .curvature import ricci_scalar_batch, ricci_tensor, verify_ric_transformation
from .diffengine import Jet, fundamental_tensor
from .errors import HypothesisError
from .geodesics import extend_geodesic, finsler_distance, integrate_geodesic
from .metrics import (EuclideanMetric, QuadraticDomainSpec, RandersSpec,
                      funk_ball, funk_from_quadratic, interval_funk_eval,
                      klein_metric, randers_metric)
from .projective import (MobiusTransform, check_composition,
                         invariance_cross_check, projective_parameter,
                         schwarzian, schwarzian_fd)

FUNK_BALL_RICCI_GOLDEN = -0.25  # frozen n=2 unit-ball value, k = 1


@dataclass
class CriterionResult:
    key: str
    name: str
    passed: bool
    duration: float
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"key": self.key, "name": self.name, "passed": self.passed,
                "duration_seconds": round(self.duration, 3), "details": self.details}


def _tanh(t):
    return t.tanh() if isinstance(t, Jet) else math.tanh(t)


def _tan(t):
    return t.tan() if isinstance(t, Jet) else math.tan(t)


def _random_mobius(rng):
    while True:
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        if abs(a * d - b * c) > 0.1:
            return MobiusTransform(a, b, c, d)


def _ball_closed_form(x, y):
    phi = 1.0 - x @ x
    xy = float(x @ y)
    return (math.sqrt(phi * float(y @ y) + xy * xy) + xy) / phi


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def criterion_schwarzian_invariance():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = _random_mobius(rng)
        t = float(rng.uniform(-2.0, 2.0))
        if abs(m.c * t + m.d) < 0.1:
            t += 0.5
        worst = max(worst, abs(schwarzian(m.apply, t)))
    worst_comp = 0.0
    for i in range(100):
        t = float(rng.uniform(-0.8, 0.8))
        if i % 2 == 0:
            m = _random_mobius(rng)
            f, g = m.apply, _tanh
            if abs(m.c * _tanh(t) + m.d) < 0.2:
                continue
        else:
            f, g = _tanh, _tan
        worst_comp = max(worst_comp, check_composition(f, g, t))
    return worst <= 1e-8 and worst_comp <= 1e-7, {
        "mobius_schwarzian_max": worst, "tolerance": 1e-8,
        "composition_residual_max": worst_comp, "composition_tolerance": 1e-7}


def criterion_closed_form_schwarzians():
    errs_tanh = [abs(schwarzian(_tanh, t) + 2.0) for t in np.linspace(-2.0, 2.0, 21)]
    errs_tan = [abs(schwarzian(_tan, t) - 2.0) for t in np.linspace(-1.2, 1.2, 21)]
    worst = max(max(errs_tanh), max(errs_tan))
    return worst <= 1e-8, {"tanh_max_error": max(errs_tanh),
                           "tan_max_error": max(errs_tan), "tolerance": 1e-8}


def _interval_length_by_quadrature(a, b, k):
    d = b - a
    val, _ = integrate.quad(lambda t: interval_funk_eval(a + t * d, d, k),
                            0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def criterion_funk_interval():
    rng = np.random.default_rng(202)
    worst_int = 0.0
    for k in (0.5, 1.0, 2.0):
        for _ in range(100):
            a, b = rng.uniform(-0.95, 0.95, 2)
            if a == b:
                continue
            worst_int = max(worst_int, abs(
                dist.funk_distance_interval(a, b, k)
                - _interval_length_by_quadrature(a, b, k)))
    pinned = max(abs(dist.funk_distance_interval(0.0, 0.5) - math.log(2.0)),
                 abs(dist.funk_distance_interval(0.5, 0.0) - math.log(1.5)))
    axioms_ok = True
    collinear_worst = 0.0
    asym_seen = 0
    for _ in range(1000):
        a, b, c = rng.uniform(-0.95, 0.95, 3)
        dab = dist.funk_distance_interval(a, b)
        axioms_ok &= dab >= 0.0
        axioms_ok &= dist.funk_distance_interval(a, a) == 0.0
        if a != b:
            axioms_ok &= dab > 0.0
            if abs(dist.funk_distance_interval(a, b)
                   - dist.funk_distance_interval(b, a)) > 1e-12:
                asym_seen += 1
        axioms_ok &= (dist.funk_distance_interval(a, c)
                      <= dab + dist.funk_distance_interval(b, c) + 1e-12)
        lo, mid, hi = sorted((a, b, c))
        collinear_worst = max(collinear_worst, abs(
            dist.funk_distance_interval(lo, hi)
            - dist.funk_distance_interval(lo, mid)
            - dist.funk_distance_interval(mid, hi)))
    passed = (worst_int <= 1e-9 and pinned <= 1e-12 and axioms_ok
              and collinear_worst <= 1e-10 and asym_seen > 900)
    return passed, {
        "closed_form_vs_quadrature_max": worst_int, "quadrature_tolerance": 1e-9,
        "pinned_values_error": pinned, "pinned_tolerance": 1e-12,
        "axioms_hold": bool(axioms_ok), "collinear_equality_max": collinear_worst,
        "collinear_tolerance": 1e-10, "asymmetric_pairs": asym_seen}


def criterion_quadratic_funk():
    rng = np.random.default_rng(303)
    ball = funk_ball(2)
    worst = 0.0
    for _ in range(1000):
        x = ball.random_interior_point(rng)
        y = rng.normal(size=2)
        worst = max(worst, abs(ball.norm(x, y) - _ball_closed_form(x, y)))
    worst_grad = 0.0
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        spec = QuadraticDomainSpec(alpha=-(A @ A.T + 0.3 * np.eye(2)),
                                   beta=0.2 * rng.normal(size=2),
                                   gamma=1.0 + float(abs(rng.normal())), k=1.0)
        metric = funk_from_quadratic(spec)

        def log_phi(xs):
            acc = spec.gamma
            for i in range(2):
                acc = acc + 2.0 * spec.beta[i] * xs[i]
                for j in range(2):
                    acc = acc + spec.alpha[i, j] * xs[i] * xs[j]
            return acc.log()

        for _ in range(20):
            x = metric.random_interior_point(rng)
            b = metric.coefficient_oneform(x)
            for j in range(2):
                xs = list(map(float, x))
                xs[j] = Jet.variable(xs[j], 1)
                worst_grad = max(worst_grad, abs(b[j] + 0.5 * log_phi(xs).coef[1]))
    point_err = abs(ball.norm([0.5, 0.0], [1.0, 0.0]) - 2.0)
    passed = worst <= 1e-10 and worst_grad <= 1e-10 and point_err <= 1e-12
    return passed, {"ball_vs_closed_form_max": worst, "ball_tolerance": 1e-10,
                    "gradient_identity_max": worst_grad, "gradient_tolerance": 1e-10,
                    "pinned_point_error": point_err, "pinned_tolerance": 1e-12}


def criterion_geodesics():
    drift = {}
    cases = [
        (EuclideanMetric(2), [0.0, 0.0], [0.6, 0.8]),
        (klein_metric(2), [-math.tanh(5.0), 0.0], [1.0, 0.0]),
        (funk_ball(2), [-0.99, 0.0], [1.0, 0.0]),
        (randers_metric(RandersSpec(2, np.eye(2), np.array([0.5, 0.0]))),
         [0.0, 0.0], [1.0, 0.3]),
    ]
    for metric, x0, y0 in cases:
        seg = integrate_geodesic(metric, x0, y0, 10.0)
        drift[metric.name] = seg.unit_speed_drift()
    rng = np.random.default_rng(404)
    collin = {}
    for metric in (EuclideanMetric(2), klein_metric(2), funk_ball(2)):
        worst = 0.0
        for _ in range(5):
            x0 = (metric.random_interior_point(rng) if metric.bounded_domain
                  else rng.uniform(-0.5, 0.5, 2))
            y0 = rng.normal(size=2)
            seg = integrate_geodesic(metric, x0, y0, 1.5)
            unit = y0 / np.linalg.norm(y0)
            for s, xx, vv in seg.samples:
                delta = xx - np.asarray(x0)
                worst = max(worst, abs(float(delta[0] * unit[1] - delta[1] * unit[0])))
        collin[metric.name] = worst
    dk = abs(finsler_distance(klein_metric(2), [0, 0], [0.5, 0]) - math.atanh(0.5))
    df = abs(finsler_distance(funk_ball(2), [0, 0], [0.5, 0]) - math.log(2.0))
    db = abs(finsler_distance(funk_ball(2), [0.5, 0], [0, 0]) - math.log(1.5))
    passed = (max(drift.values()) <= 1e-7 and max(collin.values()) <= 1e-6
              and dk <= 1e-6 and df <= 1e-6 and db <= 1e-6)
    return passed, {"unit_speed_drift": drift, "drift_tolerance": 1e-7,
                    "collinearity": collin, "collinearity_tolerance": 1e-6,
                    "klein_distance_error": dk, "funk_forward_error": df,
                    "funk_backward_error": db, "distance_tolerance": 1e-6}


def criterion_curvature():
    rng = np.random.default_rng(505)
    details = {}
    worst_einstein = 0.0
    worst_contraction = 0.0
    for n in (2, 3):
        metric = klein_metric(n)
        for x, y in metric.random_line_elements(50, rng):
            data = ricci_tensor(metric, x, y)
            g = fundamental_tensor(metric, x, y)
            worst_einstein = max(worst_einstein, float(
                np.abs(data.ric_tensor + (n - 1) * g).max()))
            worst_contraction = max(worst_contraction, data.contraction_residual)
        details[f"klein_n{n}_einstein_max"] = worst_einstein
    ball = funk_ball(2)
    elements = ball.random_line_elements(50, rng)
    rics = ricci_scalar_batch(ball, [x for x, _ in elements], [y for _, y in elements]).tolist()
    spread = max(rics) - min(rics)
    golden_err = abs(np.mean(rics) - FUNK_BALL_RICCI_GOLDEN)
    for x, y in ball.random_line_elements(10, rng):
        worst_contraction = max(worst_contraction,
                                ricci_tensor(ball, x, y).contraction_residual)
    passed = (worst_einstein <= 1e-4 and spread <= 1e-3 and golden_err <= 1e-3
              and worst_contraction <= 1e-4)
    details.update({"einstein_tolerance": 1e-4,
                    "funk_ricci_spread": spread, "spread_tolerance": 1e-3,
                    "funk_ricci_golden": FUNK_BALL_RICCI_GOLDEN,
                    "funk_ricci_golden_error": golden_err,
                    "contraction_residual_max": worst_contraction,
                    "contraction_tolerance": 1e-4})
    return passed, details


def criterion_ricci_transformation():
    rng = np.random.default_rng(606)
    klein = klein_metric(2)
    pairs = [(EuclideanMetric(2), klein), (klein, funk_ball(2))]
    worst = {}
    for a, b in pairs:
        bad = 0.0
        for x, y in klein.random_line_elements(50, rng):
            bad = max(bad, verify_ric_transformation(a, b, x, y))
        worst[f"{a.name}->{b.name}"] = bad
    passed = max(worst.values()) <= 1e-3
    worst["tolerance"] = 1e-3
    return passed, worst


def criterion_projective_parameter():
    klein = klein_metric(2)
    seg = extend_geodesic(klein, [0.0, 0.0], [1.0, 0.0])
    par = projective_parameter(klein, seg)
    probes = np.linspace(-2.0, 2.0, 17)
    tanh_err = max(abs(par.value(s) - math.tanh(s)) for s in probes)
    wronskian = par.wronskian_drift()

    eucl = EuclideanMetric(2)
    seg_e = extend_geodesic(eucl, [0.0, 0.0], [1.0, 0.0], cap=50.0)
    par_e = projective_parameter(eucl, seg_e, q_step=2.0)
    eucl_err = max(abs(par_e.value(s) - s) for s in np.linspace(-20, 20, 11))
    wronskian = max(wronskian, par_e.wronskian_drift())

    schw_res = 0.0
    for metric, par_i, window in ((klein, par, 2.0), (eucl, par_e, 5.0)):
        q_of = lambda s: float(np.interp(s, par_i.s_grid, par_i.q_values))
        for s in np.linspace(-window, window, 9):
            schw_res = max(schw_res, abs(schwarzian_fd(par_i.value, s, step=0.05)
                                         - q_of(s)))
    passed = (tanh_err <= 1e-6 and eucl_err <= 1e-9 and wronskian <= 1e-8
              and schw_res <= 1e-5)
    return passed, {"klein_tanh_max_error": tanh_err, "klein_tolerance": 1e-6,
                    "euclid_identity_max_error": eucl_err, "euclid_tolerance": 1e-9,
                    "wronskian_drift": wronskian, "wronskian_tolerance": 1e-8,
                    "schwarzian_vs_q_sup": schw_res, "schwarzian_tolerance": 1e-5}


def criterion_projective_invariance():
    klein = klein_metric(2)
    eucl = EuclideanMetric(2)
    ball = funk_ball(2)
    probes = [-0.3, 0.05, 0.25, 0.5]
    residuals = {
        "klein_vs_euclid": invariance_cross_check(klein, eucl, [0, 0], [1, 0], probes),
        "klein_vs_funk": invariance_cross_check(klein, ball, [0, 0], [1, 0], probes),
        "euclid_vs_funk": invariance_cross_check(eucl, ball, [0, 0], [1, 0], probes),
    }
    values = {}
    for metric in (eucl, klein, ball):
        rep = dist.pseudo_distance_upper(metric, [0.0, 0.0], [0.5, 0.0])
        values[metric.name] = rep.estimate
    spread = max(values.values()) - min(values.values())
    passed = max(residuals.values()) <= 1e-5 and spread <= 1e-5
    residuals.update({"tolerance": 1e-5,
                      "optimized_chain_values": values,
                      "optimized_value_spread": spread})
    return passed, residuals


def criterion_pseudo_distance():
    rng = np.random.default_rng(707)
    eucl = EuclideanMetric(2)
    worst_eucl = 0.0
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        if np.allclose(x, y):
            continue
        worst_eucl = max(worst_eucl, dist.pseudo_distance_upper(eucl, x, y).estimate)
    klein = klein_metric(2)
    canonical = dist.pseudo_distance_upper(klein, [0, 0], [0.5, 0]).canonical_value
    canonical_err = abs(canonical - math.log(2.0))

    options = dist.PseudoDistanceOptions(budget=12)
    triangle_ok = True
    worst_gap = -math.inf
    for _ in range(50):
        pts = [klein.random_interior_point(rng) * 0.8 for _ in range(3)]
        dxz = dist.pseudo_distance_upper(klein, pts[0], pts[2], options).estimate
        dxy = dist.pseudo_distance_upper(klein, pts[0], pts[1], options).estimate
        dyz = dist.pseudo_distance_upper(klein, pts[1], pts[2], options).estimate
        gap = dxz - dxy - dyz
        worst_gap = max(worst_gap, gap)
        triangle_ok &= gap <= 1e-6

    budgets = [8, 16, 32, 64]
    monotone = True
    last = math.inf
    estimates = []
    for b in budgets:
        e = dist.pseudo_distance_upper(
            klein, [0.1, 0.2], [-0.3, 0.4],
            dist.PseudoDistanceOptions(budget=b)).estimate
        estimates.append(e)
        monotone &= e <= last + 1e-15
        last = e
    passed = (worst_eucl <= 1e-9 and canonical_err <= 1e-4 and triangle_ok
              and monotone)
    return passed, {"euclid_estimate_max": worst_eucl, "euclid_tolerance": 1e-9,
                    "klein_identity_chart_value": canonical,
                    "klein_identity_chart_error": canonical_err,
                    "klein_tolerance": 1e-4,
                    "triangle_worst_gap": worst_gap, "triangle_tolerance": 1e-6,
                    "budget_estimates": estimates, "monotone_improvement": monotone}


def criterion_schwarz_checkers():
    klein = klein_metric(2)
    link = dist.pseudo_distance_upper(klein, [0.0, 0.0], [0.5, 0.0]).canonical_chain.links[0]
    grid = np.linspace(-0.9, 0.9, 13)
    report = dist.schwarz_ratio(klein, link, grid, c=1.0)
    h_err = float(np.abs(report.h_values - 1.0 / (1.0 + report.grid)).max())
    cor = dist.corollary_check(klein, link, c=1.0)
    eucl_refused = False
    try:
        eucl = EuclideanMetric(2)
        report_e = dist.pseudo_distance_upper(eucl, [0.0, 0.0], [0.5, 0.0])
        dist.schwarz_ratio(eucl, report_e.canonical_chain.links[0], [0.0, 0.5], c=1.0)
    except HypothesisError:
        eucl_refused = True
    exit_code = _cli_exit_code_for_flagged_checker()
    passed = (h_err <= 1e-6
              and abs(report.empirical_sup - 10.0) <= 1e-4
              and report.sup_at == -0.9
              and abs(report.bound - 0.5) <= 1e-12
              and not report.passed
              and report.monotonicity == dist.NO_INTERIOR_MAXIMUM
              and abs(cor.lhs - math.log(2.0)) <= 1e-6
              and abs(cor.rhs - 2.0 * math.atanh(0.5)) <= 1e-6
              and not cor.passed and cor.passed_alternate
              and eucl_refused and exit_code == 2)
    return passed, {"h_grid_max_error": h_err, "h_tolerance": 1e-6,
                    "empirical_sup": report.empirical_sup, "sup_at": report.sup_at,
                    "bound": report.bound, "bound_passed": report.passed,
                    "monotonicity": report.monotonicity,
                    "corollary_lhs": cor.lhs, "corollary_rhs": cor.rhs,
                    "corollary_passed": cor.passed,
                    "corollary_alternate_rhs": cor.rhs_alternate,
                    "corollary_alternate_passed": cor.passed_alternate,
                    "euclid_hypothesis_refused": eucl_refused,
                    "flagged_checker_exit_code": exit_code}


def _cli_exit_code_for_flagged_checker():
    from .cli import run_args
    code, _ = run_args(["pseudodist", "--metric", "klein", "--n", "2",
                        "--x0", "0", "0", "--x1", "0.5", "0",
                        "--check-corollary", "--c", "1.0"], capture=True)
    return code


def criterion_metric_axioms():
    rng = np.random.default_rng(808)
    metrics = [EuclideanMetric(2), klein_metric(2), funk_ball(2),
               randers_metric(RandersSpec(2, np.eye(2), np.array([0.5, 0.0])))]
    worst_h = 0.0
    convex_ok = True
    for metric in metrics:
        samples = [(x, y, float(rng.uniform(0.1, 10.0)))
                   for x, y in metric.random_line_elements(1000, rng)]
        rep = validate_homogeneity(metric, samples, tolerance=1e-10)
        worst_h = max(worst_h, rep.checks[0].residual)
        rep2 = validate_strong_convexity(metric, metric.random_line_elements(100, rng))
        convex_ok &= rep2.passed
    passed = worst_h <= 1e-10 and convex_ok
    return passed, {"homogeneity_residual_max": worst_h, "tolerance": 1e-10,
                    "strong_convexity_all_passed": bool(convex_ok)}


CRITERIA = [
    ("criterion_01", "Schwarzian Moebius invariance and composition rule",
     criterion_schwarzian_invariance, 1.0),
    ("criterion_02", "closed-form Schwarzians of tanh and tan",
     criterion_closed_form_schwarzians, None),
    ("criterion_03", "interval Funk distance: closed form, quadrature, axioms",
     criterion_funk_interval, None),
    ("criterion_04", "quadratic-domain Funk metric against the ball closed form",
     criterion_quadratic_funk, None),
    ("criterion_05", "geodesics: unit speed, collinearity, induced distances",
     criterion_geodesics, None),
    ("criterion_06", "Ricci curvature of the Klein and Funk exemplars",
     criterion_curvature, 120.0),
    ("criterion_07", "projective transformation law of the Ricci weight",
     criterion_ricci_transformation, None),
    ("criterion_08", "projective normal parameter solutions",
     criterion_projective_parameter, None),
    ("criterion_09", "projective invariance of parameters and chain values",
     criterion_projective_invariance, None),
    ("criterion_10", "pseudo-distance estimator properties",
     criterion_pseudo_distance, None),
    ("criterion_11", "Schwarz-ratio and corollary checkers reproduce diagnostics",
     criterion_schwarz_checkers, None),
    ("invariant_metric_axioms", "shipped metrics satisfy the structure axioms",
     criterion_metric_axioms, None),
]

TOTAL_TIME_LIMIT = 300.0  # criterion 12


def run_criterion(key, name, fn, limit):
    start = time.perf_counter()
    passed, details = fn()
    duration = time.perf_counter() - start
    if limit is not None:
        details["runtime_limit_seconds"] = limit
        if duration > limit:
            passed = False
    return CriterionResult(key=key, name=name, passed=passed,
                           duration=duration, details=details)


def run_all(progress=None):
    """Run every acceptance criterion; returns the list of results.

    The final entry is criterion 12: the whole suite must finish in a
    single process within TOTAL_TIME_LIMIT seconds.
    """
    results = []
    start = time.perf_counter()
    for key, name, fn, limit in CRITERIA:
        result = run_criterion(key, name, fn, limit)
        results.append(result)
        if progress is not None:
            progress(f"{'PASS' if result.passed else 'FAIL'} {result.key}: "
                     f"{result.name} ({result.duration:.2f}s)")
    total = time.perf_counter() - start
    results.append(CriterionResult(
        key="criterion_12", name="full suite under the single-process time limit",
        passed=total <= TOTAL_TIME_LIMIT, duration=total,
        details={"limit_seconds": TOTAL_TIME_LIMIT}))
    if progress is not None:
        r = results[-1]
        progress(f"{'PASS' if r.passed else 'FAIL'} {r.key}: {r.name} "
                 f"({r.duration:.2f}s)")
    return results
