"""Self-test of the benchmark's oracles and checks.

    python3 perfbench/selftest.py

1. The closed-form distances and the Funk backward reach agree with an
   mpmath quadrature of F along the chord (straight chords are geodesics of
   every family used here), with F written out again in mpmath.
2. Each check accepts a real library result and rejects the same result
   with one value perturbed.
3. The boundary fault is told apart from other ZeroDivisionErrors.
Exits 1 on the first disagreement.
"""

import copy
import dataclasses
import sys

import env

env.prepare()

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import finslerproj as fp  # noqa: E402
import oracles  # noqa: E402
import workloads as W  # noqa: E402

mpmath.mp.dps = 30
QUAD_TOL = 1e-10


def mp_norm(family, x, v):
    """F(x, v) in mpmath, from the defining formulas."""
    x = [mpmath.mpf(float(t)) for t in x]
    v = [mpmath.mpf(float(t)) for t in v]
    dot = lambda a, b: mpmath.fsum(p * q for p, q in zip(a, b))
    kind = family[0]
    if kind == "euclid":
        return mpmath.sqrt(dot(v, v))
    if kind == "klein":
        phi = 1 - dot(x, x)
        return mpmath.sqrt(dot(v, v) / phi + dot(x, v) ** 2 / phi ** 2)
    if kind == "randers":
        a = mpmath.matrix(family[1].tolist())
        av = a * mpmath.matrix(v)
        return mpmath.sqrt(dot(v, list(av))) + dot(family[2].tolist(), v)
    # Funk: F = 1/(k t), x + t v on the boundary (x-c) A (x-c) = r2
    _, A, c, r2, k = family
    A = mpmath.matrix(A.tolist())
    d = mpmath.matrix([xi - mpmath.mpf(float(ci)) for xi, ci in zip(x, c)])
    vv = mpmath.matrix(v)
    qa = (vv.T * A * vv)[0]
    qb = (d.T * A * vv)[0]
    qc = (d.T * A * d)[0] - r2
    t = (-qb + mpmath.sqrt(qb * qb - qa * qc)) / qa
    return 1 / (k * t)


def chord_length(family, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    v = y - x
    return float(mpmath.quad(lambda t: mp_norm(family, x + float(t) * v, v), [0, 1]))


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def test_distance_oracles():
    rng = np.random.default_rng(2026)
    bvp = W.BVP(1)
    cur = W.Curvature(1)
    cases = bvp.cases + [cur.cases[3], cur.cases[4], cur.probe]
    worst = 0.0
    for case in cases:
        for _ in range(3):
            x, y = W._pair(rng, case, 0.85)
            err = abs(oracles.distance(case.family, x, y) - chord_length(case.family, x, y))
            worst = max(worst, err)
            if err > QUAD_TOL:
                fail(f"{case.label}: distance oracle off by {err:.2e}")
            if case.family[0] == "funk":
                back = x + oracles.funk_exit(case.family, x, x - y) * (x - y)
                # the quadrature stops just short of the boundary, where F blows up
                near = back + 1e-12 * (x - back)
                err = abs(oracles.funk_backward_reach(case.family, x, y)
                          - chord_length(case.family, near, x))
                if err > 1e-8:
                    fail(f"{case.label}: backward reach off by {err:.2e}")
    print(f"distance oracles agree with mpmath quadrature (worst {worst:.1e})")


def expect(check, result, label):
    wrong = check(result)
    if label is None and wrong:
        fail(f"a genuine result was rejected: {wrong}")
    if label is not None and not any(w[0] == label for w in wrong):
        fail(f"perturbed {label} passed the check")


def test_checks():
    case = W.BVP(1).case("klein2")
    x, y = np.array([0.1, 0.2]), np.array([-0.3, 0.4])
    res = fp.connect(case.metric, x, y)
    check = lambda r: W.check_connect(case, x, y, r)
    expect(check, res, None)
    bad = copy.copy(res)
    bad.segment = copy.copy(res.segment)
    bad.segment.s_max = res.segment.s_max + 1e-5          # length = s_max - s_min
    expect(check, bad, "distance")
    expect(check, fp.BVPResult(res.segment, 1e-7, res.iterations), "miss")
    bad = copy.copy(res)
    bad.segment = copy.copy(res.segment)
    bad.segment.sample_states = res.segment.sample_states * np.r_[1, 1, 1 + 1e-6, 1 + 1e-6]
    expect(check, bad, "unit_speed_drift")

    cur = W.Curvature(1)
    case = cur.cases[0]
    # at x = 0 the Klein g is the identity and l = e_0, so e_1 is transverse
    elements = [(np.array([0.0, 0.0]), np.array([1.0, 0.0]))]
    op = cur._op(case, elements)
    report, scalars = op.run()
    expect(op.check, (report, scalars), None)
    expect(op.check, (report, [scalars[0] + 1e-4]), "ricci_scalar")
    bad = copy.deepcopy(report)
    bad.max_eigenvalues = [0.01 * s for s in report.scales]
    expect(op.check, (bad, scalars), "bound_passed")
    # a transverse diagonal entry 0.01 too negative: the contraction, the
    # Ricci scalar and the largest eigenvalue of Ric + c^2 g stay the same
    ricci_tensor = fp.ricci_tensor

    def skewed(metric, x, y):
        data = ricci_tensor(metric, x, y)
        return dataclasses.replace(data, ric_tensor=data.ric_tensor - 0.01 * np.diag([0.0, 1.0]))

    fp.ricci_tensor = skewed
    try:
        expect(op.check, (report, scalars), "ricci_tensor")
    finally:
        fp.ricci_tensor = ricci_tensor
    for element in W.PROBE_ELEMENTS:
        try:
            cur._op(cur.probe, [element]).run()
            print("note: a fault probe no longer raises AccuracyError")
        except fp.AccuracyError:
            pass

    case = W.Chain(1).case("klein2")
    x, y = np.array([0.1, 0.2]), np.array([-0.3, 0.4])
    options = fp.PseudoDistanceOptions(budget=12, c=oracles.equality_constant(case.family, 2))
    report = fp.pseudo_distance_upper(case.metric, x, y, options)
    check = lambda r: W.check_chain(case, x, y, options, r)
    expect(check, report, None)
    for field, value, label in [
            ("geodesic_distance", report.geodesic_distance + 1e-5, "geodesic_distance"),
            ("canonical_value", report.canonical_value + 1e-3, "canonical_value"),
            ("estimate", report.canonical_value + 1e-3, "estimate_order"),
            ("estimate", -1e-9, "estimate_order"),
            ("hypothesis_passed", False, "hypothesis_passed"),
            ("lower_bound", report.lower_bound * (1 + 1e-5), "lower_bound")]:
        bad = copy.copy(report)
        setattr(bad, field, value)
        expect(check, bad, label)
    print("every check accepts the genuine result and rejects each perturbed value")


def test_boundary_fault():
    metric = W.Chain(1).case("klein2").metric
    try:
        metric.spray_vector(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        fail("the Klein spray no longer raises on the unit sphere")
    except ZeroDivisionError as exc:
        if not W.boundary_fault(exc):
            fail("the Klein spray's ZeroDivisionError is not taken for the boundary fault")
    try:
        1.0 / 0.0
    except ZeroDivisionError as exc:
        if W.boundary_fault(exc):
            fail("a ZeroDivisionError outside the spray is taken for the boundary fault")
    print("the boundary fault is recognised, and only it")


if __name__ == "__main__":
    test_distance_oracles()
    test_checks()
    test_boundary_fault()
    print("selftest passed")
