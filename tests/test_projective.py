"""Moebius utilities, the Schwarzian, and the projective parameter."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, interpolate

from finslerproj import projective
from finslerproj.diffengine import Jet
from finslerproj.errors import (ChartError, ConstructionError, CriticalPointError,
                               DomainError, PoleError)
from finslerproj.geodesics import extend_geodesic
from finslerproj.metrics import (EuclideanMetric, KleinMetric, RiemannianMetric,
                                 RiemannianSpec, funk_ball, klein_metric)
from finslerproj.projective import (MobiusTransform, check_composition,
                                    cross_ratio, invariance_cross_check,
                                    projective_parameter, schwarzian,
                                    schwarzian_fd)


def jet_tanh(t):
    return t.tanh() if isinstance(t, Jet) else math.tanh(t)


def jet_tan(t):
    return t.tan() if isinstance(t, Jet) else math.tan(t)


def random_mobius(rng):
    while True:
        a, b, c, d = rng.uniform(-2, 2, 4)
        if abs(a * d - b * c) > 0.1:
            return MobiusTransform(a, b, c, d)


class SphereMetric(RiemannianMetric):
    """Round sphere in its central-projection chart: straight geodesics,
    constant curvature +1, so q = +2 and the parameter is tan(s)."""

    closed_form = True
    name = "sphere"

    def __init__(self):
        def g(x):
            w = 1.0 + x @ x
            return np.eye(2) / w - np.outer(x, x) / w ** 2

        super().__init__(RiemannianSpec(2, g, name="sphere"))

    def _norm_impl(self, x, y):
        w = 1.0 + x[0] * x[0] + x[1] * x[1]
        xy = x[0] * y[0] + x[1] * y[1]
        return ((y[0] * y[0] + y[1] * y[1]) / w - xy * xy / (w * w)) ** 0.5

    def spray_vector(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return (-2.0 * float(x @ y) / (1.0 + float(x @ x))) * y

    def _spray_impl(self, x, y):
        p = -2.0 * (x[0] * y[0] + x[1] * y[1]) / (1.0 + x[0] * x[0] + x[1] * x[1])
        return [p * y[0], p * y[1]]


class TestMobius:
    def test_identity(self):
        m = MobiusTransform.identity()
        assert m.apply(0.37) == pytest.approx(0.37)

    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(50):
            m = random_mobius(rng)
            t = float(rng.uniform(-1, 1))
            assert m.compose(m.inverse()).apply(t) == pytest.approx(t, abs=1e-12)

    def test_translation_pair_cancels(self):
        up = MobiusTransform(1, 1, 0, 1)
        down = MobiusTransform(1, -1, 0, 1)
        both = up.compose(down)
        assert both.apply(0.4) == pytest.approx(0.4, abs=1e-15)

    def test_normalized_determinant(self, rng):
        for _ in range(20):
            m = random_mobius(rng)
            assert abs(abs(m.determinant) - 1.0) < 1e-12

    def test_pole_error(self):
        m = MobiusTransform(1.0, 0.0, 1.0, -0.5)
        with pytest.raises(PoleError):
            m.apply(0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ConstructionError):
            MobiusTransform(1.0, 2.0, 2.0, 4.0)
        with pytest.raises(DomainError):
            MobiusTransform.interval_onto(0.5, 0.5)
        with pytest.raises(DomainError):
            cross_ratio(0.1, 0.2, 0.3, 0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", range(4))
    def test_cross_ratio_rejects_non_finite_points(self, slot, bad):
        points = [0.1, 0.2, 0.3, 0.4]
        points[slot] = bad
        with pytest.raises(DomainError, match="finite"):
            cross_ratio(*points)

    def test_cross_ratio_preserved(self, rng):
        for _ in range(200):
            m = random_mobius(rng)
            ts = np.sort(rng.uniform(-1, 1, 4))
            if np.min(np.diff(ts)) < 1e-3:
                continue
            if any(abs(m.c * t + m.d) < 0.05 for t in ts):
                continue
            before = cross_ratio(*ts)
            after = cross_ratio(*(m.apply(t) for t in ts))
            assert after == pytest.approx(before, abs=1e-12, rel=1e-10)

    def test_interval_onto(self):
        m = MobiusTransform.interval_onto(-0.5, 2.0)
        assert m.apply(-1.0) == pytest.approx(-0.5)
        assert m.apply(1.0) == pytest.approx(2.0)

    def test_hyperbolic_translation_fixes_ends(self):
        m = MobiusTransform.translation(0.7)
        assert m.apply(1.0) == pytest.approx(1.0)
        assert m.apply(-1.0) == pytest.approx(-1.0)


class TestSchwarzian:
    def test_mobius_vanishes(self, rng):
        for _ in range(300):
            m = random_mobius(rng)
            t = float(rng.uniform(-2, 2))
            if abs(m.c * t + m.d) < 0.1:
                continue
            assert abs(schwarzian(m.apply, t)) <= 1e-8

    def test_tanh_and_tan(self):
        for t in np.linspace(-1.5, 1.5, 13):
            assert schwarzian(jet_tanh, float(t)) == pytest.approx(-2.0, abs=1e-8)
        for t in np.linspace(-1.2, 1.2, 13):
            assert schwarzian(jet_tan, float(t)) == pytest.approx(2.0, abs=1e-8)

    def test_finite_difference_fallback(self):
        # plain-float callables take the explicit stencil; schwarzian itself
        # differentiates only through a Jet and names the stencil otherwise.
        # tan's fast-growing derivatives cap the stencil accuracy below the
        # jet path's
        assert schwarzian_fd(math.tanh, 0.3) == pytest.approx(-2.0, abs=1e-8)
        assert schwarzian_fd(math.tan, 0.5) == pytest.approx(2.0, abs=5e-7)
        with pytest.raises(ConstructionError, match="schwarzian_fd"):
            schwarzian(math.tanh, 0.3)

    @pytest.mark.parametrize("step", [0.0, -0.02, math.inf, math.nan])
    def test_fd_step_must_be_positive_and_finite(self, step):
        # a zero step divides by zero, and a non-finite one makes the value NaN
        with pytest.raises(ConstructionError, match="stencil step"):
            schwarzian_fd(math.tanh, 0.3, step=step)

    def test_critical_point_error(self):
        with pytest.raises(CriticalPointError):
            schwarzian(lambda t: t * t if not isinstance(t, Jet) else t * t, 0.0)

    def test_profile(self):
        for t in (0.0, 0.5):
            assert schwarzian(jet_tanh, t) == pytest.approx(-2.0, abs=1e-10)


class TestComposition:
    def test_mobius_outer_reduces(self, rng):
        for _ in range(30):
            m = random_mobius(rng)
            t = float(rng.uniform(-0.7, 0.7))
            if abs(m.c * jet_tanh(t) + m.d) < 0.2:
                continue
            assert check_composition(m.apply, jet_tanh, t) <= 1e-7

    def test_tanh_of_tan(self, rng):
        for _ in range(100):
            t = float(rng.uniform(-0.8, 0.8))
            assert check_composition(jet_tanh, jet_tan, t) <= 1e-7

    def test_identity_inner(self):
        ident = lambda t: t
        assert check_composition(jet_tanh, ident, 0.4) <= 1e-9


class TestProjectiveParameter:
    def test_euclid_identity(self, eucl2):
        seg = extend_geodesic(eucl2, [0.0, 0.0], [1.0, 0.0], cap=30.0)
        par = projective_parameter(eucl2, seg, q_step=2.0)
        for s in np.linspace(-25, 25, 11):
            assert par.value(s) == pytest.approx(s, abs=1e-9)

    def test_klein_tanh(self, klein2):
        seg = extend_geodesic(klein2, [0.0, 0.0], [1.0, 0.0])
        par = projective_parameter(klein2, seg)
        for s in np.linspace(-2.0, 2.0, 9):
            assert par.value(s) == pytest.approx(math.tanh(s), abs=1e-6)
        assert par.wronskian_drift() <= 1e-8
        assert par.poles == []

    def test_sphere_tan_and_poles(self):
        sphere = SphereMetric()
        seg = extend_geodesic(sphere, [0.0, 0.0], [1.0, 0.0], cap=2.5)
        par = projective_parameter(sphere, seg)
        for s in np.linspace(-1.2, 1.2, 9):
            assert par.value(s) == pytest.approx(math.tan(s), abs=1e-6)
        assert len(par.poles) == 2
        assert sorted(abs(p) for p in par.poles) == pytest.approx(
            [math.pi / 2, math.pi / 2], abs=1e-6)
        with pytest.raises(ChartError):
            par.value(math.pi / 2)
        lo, hi = par.chart_interval(0.0)
        assert (lo, hi) == pytest.approx((-math.pi / 2, math.pi / 2), abs=1e-6)
        assert not par.same_chart([0.0, 2.0])

    def test_normalization(self, klein2):
        seg = extend_geodesic(klein2, [0.1, 0.1], [0.5, -0.2])
        par = projective_parameter(klein2, seg)
        assert par.value(0.0) == pytest.approx(0.0, abs=1e-12)
        assert par.derivative(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_normalization_point_outside_segment(self, klein2):
        seg = extend_geodesic(klein2, [0.1, 0.1], [0.5, -0.2], cap=1.0)
        for s0 in (seg.s_max + 0.5, math.nan):
            with pytest.raises(DomainError):
                projective_parameter(klein2, seg, s0=s0)

    @pytest.mark.parametrize("q_step", [0.0, -0.25, -1e9, math.inf, math.nan])
    def test_q_step_checked_before_sampling(self, klein2, q_step, monkeypatch):
        # unchecked, a zero step divides by zero, a negative or infinite one
        # splines q from 9 samples, and nan reads as over 65536 samples
        seg = extend_geodesic(klein2, [0.1, 0.1], [0.5, -0.2], cap=1.0)
        monkeypatch.setattr(projective, "_q_window", None)
        with pytest.raises(ConstructionError, match="q sampling step"):
            projective_parameter(klein2, seg, q_step=q_step)

    def test_schwarzian_recovers_q(self, klein2):
        seg = extend_geodesic(klein2, [0.0, 0.0], [1.0, 0.0])
        par = projective_parameter(klein2, seg)
        worst = max(abs(schwarzian_fd(par.value, s, step=0.05) + 2.0)
                    for s in np.linspace(-1.5, 1.5, 9))
        assert worst <= 1e-5

    def test_gauge_covariance_cross_ratios(self, klein2):
        seg = extend_geodesic(klein2, [0.0, 0.0], [1.0, 0.0])
        par_a = projective_parameter(klein2, seg, s0=0.0)
        par_b = projective_parameter(klein2, seg, s0=0.4)
        probes = [-0.5, 0.1, 0.7, 1.3]
        cr_a = cross_ratio(*(par_a.value(s) for s in probes))
        cr_b = cross_ratio(*(par_b.value(s) for s in probes))
        assert cr_a == pytest.approx(cr_b, abs=1e-8)

    def test_basis_arrays_equal_scalar_calls(self):
        sphere = SphereMetric()
        seg = extend_geodesic(sphere, [0.0, 0.0], [1.0, 0.0], cap=2.5)
        par = projective_parameter(sphere, seg, s0=0.3)
        ss = np.linspace(seg.s_min, seg.s_max, 57)
        stacked = np.column_stack([par.basis(s) for s in ss])
        assert [v.hex() for v in par.basis(ss).ravel().tolist()] == \
            [v.hex() for v in stacked.ravel().tolist()]

    def test_solve_value_inverts(self, klein2):
        seg = extend_geodesic(klein2, [0.0, 0.0], [1.0, 0.0])
        par = projective_parameter(klein2, seg)
        s = par.solve_value(0.5, 0.0)
        assert s == pytest.approx(math.atanh(0.5), abs=1e-9)


def warped_klein():
    """The black-box Klein tensor times 1 + 0.3 x0: q varies along geodesics."""
    def g(x):
        phi = 1.0 - float(x @ x)
        return (np.eye(len(x)) / phi + np.outer(x, x) / phi ** 2) * (1.0 + 0.3 * x[0])

    return RiemannianMetric(RiemannianSpec(
        dimension=2, metric_provider=g, domain_provider=lambda x: 1.0 - float(x @ x),
        name="warped-klein"))


class TestPiecewiseSeries:
    @pytest.mark.parametrize("metric, w", [(klein_metric(2), 1.0), (funk_ball(2), 0.5)])
    def test_constant_curvature_basis_is_closed_form(self, metric, w):
        # q = -2 w^2: w1 = sinh(w s) / w, w2 = cosh(w s), over the whole
        # extension, the slivers where q is clamped included
        seg = extend_geodesic(metric, [0.1, 0.2], [0.3, -0.4])
        par = projective_parameter(metric, seg)
        assert par.s_grid[-1] < seg.s_max - 1.0
        ss = np.linspace(seg.s_min, seg.s_max, 1001)
        exact = np.array([np.sinh(w * ss) / w, np.cosh(w * ss),
                          np.cosh(w * ss), w * np.sinh(w * ss)])
        assert np.abs(par.basis(ss) - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("s0", [0.0, 0.37])
    def test_constant_positive_q_poles(self, monkeypatch, s0):
        # q = 18 everywhere: w2 = cos(3 (s - s0)); pieces of the 4-unit grid
        # would hold two zeros each unless they are split
        monkeypatch.setattr(projective, "ricci_scalar_batch",
                            lambda metric, X, Y: np.full(len(X), 9.0))
        eucl = EuclideanMetric(2)
        seg = extend_geodesic(eucl, [0.0, 0.0], [1.0, 0.0], cap=10.0)
        par = projective_parameter(eucl, seg, s0=s0, q_step=4.0)
        omega = 3.0
        expected = [s0 + (2 * j + 1) * math.pi / (2 * omega) for j in range(-12, 12)]
        expected = [p for p in expected if seg.s_min < p < seg.s_max]
        assert len(par.poles) == len(expected)
        assert np.abs(np.array(par.poles) - expected).max() <= 1e-12

    def test_varying_q_matches_ode_oracle(self):
        metric = warped_klein()
        seg = extend_geodesic(metric, [0.1, 0.2], [0.3, -0.4], cap=6.0)
        par = projective_parameter(metric, seg)
        q_lo, q_hi = par.s_grid[0], par.s_grid[-1]
        assert seg.s_min < q_lo and q_hi < seg.s_max      # clamped slivers on both sides
        spline = interpolate.make_interp_spline(par.s_grid, par.q_values,
                                                k=min(5, len(par.s_grid) - 1))

        def rhs(s, w):
            q = float(spline(min(max(s, q_lo), q_hi)))
            return [w[1], -0.5 * q * w[0], w[3], -0.5 * q * w[2]]

        ss = np.linspace(seg.s_min, seg.s_max, 101)
        oracle = np.empty((4, ss.size))
        for side, end in ((ss >= 0.0, seg.s_max), (ss < 0.0, seg.s_min)):
            sol = integrate.solve_ivp(rhs, (0.0, end), [0.0, 1.0, 1.0, 0.0], method="DOP853",
                                      rtol=1e-13, atol=1e-15, dense_output=True)
            oracle[:, side] = sol.sol(ss[side])
        assert np.abs(par.basis(ss) - oracle).max() <= 1e-10 * np.abs(oracle).max()


def blackbox_klein():
    """The Klein tensor with no Christoffels: its spray takes the stencils."""
    def g(x):
        phi = 1.0 - float(x @ x)
        return np.eye(len(x)) / phi + np.outer(x, x) / phi ** 2

    return RiemannianMetric(RiemannianSpec(
        dimension=2, metric_provider=g, domain_provider=lambda x: 1.0 - float(x @ x),
        name="klein-blackbox"))


def brute_force_window(metric, segment, margin_fraction=1e-6, drift_limit=1e-6):
    """_q_window's window from every sample's flag, judged up front, then
    the walk outward from the sample nearest s = 0."""
    lo, hi = segment.s_min, segment.s_max
    ss = np.linspace(lo, hi, 201)
    n = metric.dimension
    needs_room = metric.bounded_domain and not metric.closed_form
    flags = []
    for st in segment.states(ss):
        try:
            flags.append(not abs(metric.norm(st[:n], st[n:]) - 1.0) > drift_limit
                         and not (needs_room and metric.domain_value(st[:n])
                                  < margin_fraction * metric.domain_scale))
        except Exception:
            flags.append(False)
    anchor = int(np.argmin(np.abs(ss)))
    if not flags[anchor]:
        return lo, hi
    a = b = anchor
    while a > 0 and flags[a - 1]:
        a -= 1
    while b < len(ss) - 1 and flags[b + 1]:
        b += 1
    return float(ss[a]), float(ss[b])


class DoubledSpeed:
    """A segment whose states carry twice the unit velocity: no sample,
    the anchor included, passes the unit-speed test."""

    def __init__(self, segment):
        self.segment = segment
        self.s_min, self.s_max = segment.s_min, segment.s_max

    def states(self, ss):
        st = self.segment.states(ss).copy()
        st[:, st.shape[1] // 2:] *= 2.0
        return st


class TestQWindow:
    @pytest.mark.parametrize("make, cap, margin", [
        (lambda: klein_metric(2), 30.0, 1e-6),
        (lambda: funk_ball(2), 30.0, 1e-6),
        (blackbox_klein, 6.0, 1e-6),     # the stencil-room branch, untrimmed
        (blackbox_klein, 6.0, 0.5),      # the stencil-room branch trims both ends
    ])
    def test_equals_judging_every_sample(self, make, cap, margin, monkeypatch):
        metric = make()
        seg = extend_geodesic(metric, [0.1, 0.2], [0.3, -0.4], cap=cap)
        monkeypatch.setattr(projective, "WINDOW_MARGIN", margin)
        window = projective._q_window(metric, seg)
        assert window == brute_force_window(metric, seg, margin_fraction=margin)
        if margin == 0.5:
            assert seg.s_min < window[0] and window[1] < seg.s_max

    def test_unhealthy_anchor_keeps_the_segment(self, klein2):
        seg = DoubledSpeed(extend_geodesic(klein2, [0.1, 0.2], [0.3, -0.4]))
        window = projective._q_window(klein2, seg)
        assert window == (seg.s_min, seg.s_max) == brute_force_window(klein2, seg)

    def test_one_pass_without_norm_calls(self, monkeypatch):
        # all 201 samples are judged on the stacks at once, never one by one
        metric = klein_metric(2)
        seg = extend_geodesic(metric, [0.1, 0.2], [0.3, -0.4])
        expected = brute_force_window(metric, seg)
        monkeypatch.setattr(metric, "norm", None)
        lo, hi = projective._q_window(metric, seg)
        assert seg.s_min < lo and hi < seg.s_max
        assert (lo, hi) == expected

    def test_non_finite_tail_ends_the_window(self):
        # F is NaN past x0 = 0.5, with numpy's invalid-value warning, which
        # is an error here: the window ends at the last finite sample
        class NanTail(KleinMetric):
            def _norm_impl(self, x, y):
                return super()._norm_impl(x, y) + 0.0 * np.sqrt(0.5 - x[0])

        metric = NanTail(2)
        seg = extend_geodesic(klein_metric(2), [0.0, 0.0], [1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = projective._q_window(metric, seg)
        step = (seg.s_max - seg.s_min) / 200
        assert seg.s_min < lo and hi < seg.s_max
        assert seg.position(hi)[0] <= 0.5 < seg.position(hi + step)[0]
        assert (lo, hi) == brute_force_window(metric, seg)


class TestInvarianceCrossCheck:
    def test_pairwise_residuals(self, eucl2, klein2, ball2):
        probes = [-0.3, 0.05, 0.25, 0.5]
        for a, b in ((klein2, eucl2), (klein2, ball2), (eucl2, ball2)):
            assert invariance_cross_check(a, b, [0, 0], [1, 0], probes) <= 1e-5

    def test_same_metric_zero(self, klein2):
        res = invariance_cross_check(klein2, klein2, [0, 0], [1, 0],
                                     [-0.3, 0.05, 0.25, 0.5])
        assert res <= 1e-10

    @pytest.mark.parametrize("x0, direction", [([0.0, 0.0], [0.0, 0.0]),
                                               ([0.0, 0.0], [math.nan, 1.0]),
                                               ([0.0, 0.0], [math.inf, 0.0]),
                                               ([1.5, 0.0], [1.0, 0.0])])
    def test_line_element_checked_first(self, klein2, eucl2, x0, direction):
        # checked before the direction is normalized, which a zero one makes NaN
        with pytest.raises(DomainError):
            invariance_cross_check(klein2, eucl2, x0, direction, [-0.3, 0.05, 0.25, 0.5])

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_direction_scale_is_free(self, klein2, eucl2, scale):
        # the direction is normalized at its power-of-two unit scale, where
        # its squared norm neither under- nor overflows
        probes = [-0.3, 0.05, 0.25, 0.5]
        assert invariance_cross_check(klein2, eucl2, [0, 0], [scale, 0], probes) \
            == invariance_cross_check(klein2, eucl2, [0, 0], [1, 0], probes)

    def test_probe_count_guard(self, klein2, eucl2):
        with pytest.raises(ConstructionError):
            invariance_cross_check(klein2, eucl2, [0, 0], [1, 0], [0.0, 0.5])
