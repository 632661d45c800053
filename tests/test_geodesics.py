"""Sprays, geodesic integration, boundary-value solving, distances."""

import math

import numpy as np
import pytest
from scipy import integrate

from finslerproj import geodesics
from finslerproj.core import BOUNDARY_MARGIN
from finslerproj.diffengine import fundamental_tensor
from finslerproj.errors import ConnectivityError, DomainError, StiffnessError
from finslerproj.geodesics import (connect, extend_geodesic, finsler_distance,
                                   integrate_geodesic, spray_vector)
from finslerproj.metrics import (EuclideanMetric, RandersSpec, RiemannianMetric,
                                 RiemannianSpec, funk_ball, klein_metric, randers_metric)

from test_curvature import blackbox_klein


def christoffel_spray_oracle(metric, x, y, h=1e-5):
    """Independent route: finite-difference Christoffels of the fundamental
    tensor, contracted with y twice."""
    n = metric.dimension
    x = np.asarray(x, float)
    y = np.asarray(y, float)

    def g_at(xx):
        return fundamental_tensor(metric, xx, y)

    dg = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dg[:, :, k] = (g_at(x - 2 * e) - 8 * g_at(x - e)
                       + 8 * g_at(x + e) - g_at(x + 2 * e)) / (12 * h)
    ginv = np.linalg.inv(g_at(x))
    # gamma^i_jk = g^{is} (d g_sj / dx^k - d g_jk / dx^s + d g_ks / dx^j) / 2
    gamma = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gamma[i, j, k] = 0.5 * sum(
                    ginv[i, s] * (dg[s, j, k] - dg[j, k, s] + dg[k, s, j])
                    for s in range(n))
    return np.einsum("ijk,j,k->i", gamma, y, y)


class TestSpray:
    def test_euclidean_zero(self, eucl2):
        assert np.allclose(spray_vector(eucl2, [0.3, 0.1], [1.0, 2.0]), 0.0)

    def test_klein_origin_zero(self, klein2):
        assert np.abs(spray_vector(klein2, [0.0, 0.0], [0.7, 0.3])).max() < 1e-12

    def test_klein_against_christoffel_oracle(self, klein2):
        x = np.array([0.3, -0.2])
        y = np.array([0.7, 0.4])
        assert np.abs(spray_vector(klein2, x, y)
                      - christoffel_spray_oracle(klein2, x, y)).max() < 1e-8

    def test_funk_ball_against_oracle_and_known_form(self, ball2):
        # the formal-Christoffel oracle and the projective-flat form k F y
        # agree: at x=(1/2,0), y=(1,0) both give (2, 0) since F = 2
        x = np.array([0.5, 0.0])
        y = np.array([1.0, 0.0])
        oracle = christoffel_spray_oracle(ball2, x, y)
        known = ball2.spec.k * ball2.norm(x, y) * y
        computed = spray_vector(ball2, x, y)
        assert np.abs(oracle - known).max() < 1e-7
        assert np.allclose(computed, [2.0, 0.0], atol=1e-10)

    def test_two_homogeneity(self, eucl2, klein2, ball2, randers_const, rng):
        for metric in (eucl2, klein2, ball2, randers_const):
            worst = 0.0
            for x, y in metric.random_line_elements(1000, rng):
                lam = float(rng.uniform(0.3, 3.0))
                g1 = spray_vector(metric, x, y)
                g2 = spray_vector(metric, x, lam * y)
                worst = max(worst, float(np.abs(g2 - lam * lam * g1).max())
                            / max(1.0, float(np.abs(g1).max())))
            assert worst <= 1e-7


class TestIntegration:
    def test_euclidean_endpoint(self, eucl2):
        seg = integrate_geodesic(eucl2, [0.0, 0.0], [1.0, 0.0], 1.0)
        assert np.allclose(seg.position(1.0), [1.0, 0.0], atol=1e-12)

    def test_klein_radial_arc_length(self, klein2):
        seg = integrate_geodesic(klein2, [0.0, 0.0], [1.0, 0.0], math.atanh(0.5))
        assert np.abs(seg.position(seg.s_max) - [0.5, 0.0]).max() < 1e-6

    def test_unit_speed_drift(self, klein2):
        seg = integrate_geodesic(klein2, [-math.tanh(5.0), 0.0], [1.0, 0.0], 10.0)
        assert seg.unit_speed_drift() <= 1e-7

    def test_collinearity(self, klein2, ball2, eucl2, rng):
        for metric in (klein2, ball2, eucl2):
            x0 = np.array([0.1, -0.2])
            y0 = rng.normal(size=2)
            seg = integrate_geodesic(metric, x0, y0, 1.2)
            unit = y0 / np.linalg.norm(y0)
            for s, xx, vv in seg.samples:
                d = xx - x0
                assert abs(d[0] * unit[1] - d[1] * unit[0]) < 1e-6

    def test_boundary_truncation_flag(self, ball2):
        seg = integrate_geodesic(ball2, [0.9, 0.0], [1.0, 0.0], 50.0)
        assert seg.truncated
        assert seg.s_max < 50.0
        assert ball2.domain_value(seg.position(seg.s_max)) > 0.0

    def test_zero_length_segment(self, klein2):
        seg = integrate_geodesic(klein2, [0.1, 0.1], [1.0, 0.0], 0.0)
        assert seg.length == 0.0
        assert np.allclose(seg.position(0.0), [0.1, 0.1])

    def test_bad_length_and_cap_rejected(self, eucl2):
        # an infinite bound never ends on Euclidean space, a NaN one spins
        for length in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                integrate_geodesic(eucl2, [0.0, 0.0], [1.0, 0.0], length)
        for cap in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                extend_geodesic(eucl2, [0.0, 0.0], [1.0, 0.0], cap=cap)

    def test_extension_covers_both_directions(self, klein2):
        seg = extend_geodesic(klein2, [0.0, 0.0], [1.0, 0.0])
        assert seg.s_min < -5.0 and seg.s_max > 5.0
        assert seg.truncated_forward and seg.truncated_backward
        assert np.all(np.diff(seg.sample_s) > 0)

    def test_klein_extension_stops_at_boundary(self, klein2):
        # a DOP853 trial stage of this extension lands on the unit sphere
        seg = extend_geodesic(klein2, [-0.1327728828045677, -0.45487233002320954],
                              [-0.12820921861364346, 0.6609008096589744], cap=50.0)
        assert seg.truncated_forward and seg.truncated_backward
        for s in (seg.s_min, seg.s_max):
            x = seg.position(s)
            assert 1.0 - x @ x == pytest.approx(1e-12, rel=1e-2)

    @pytest.mark.parametrize("kind", ["extension", "forward", "clipped", "anchor"])
    def test_states_equal_stacked_state(self, klein2, ball2, kind):
        if kind == "extension":
            seg = extend_geodesic(klein2, [0.1, -0.2], [0.6, 0.3])
        elif kind == "forward":
            seg = integrate_geodesic(ball2, [0.2, 0.1], [-0.5, 1.0], 1.5)
        elif kind == "clipped":
            seg = integrate_geodesic(klein2, [0.2, 0.1], [-0.5, 1.0], 1.5).clipped(0.7)
        else:
            seg = integrate_geodesic(klein2, [0.2, 0.1], [-0.5, 1.0], 0.0)
        ss = np.append(np.linspace(seg.s_min, seg.s_max, 41), [0.0, seg.s_max, 0.3 * seg.s_min])
        states = seg.states(ss)
        assert states.shape == (len(ss), 4)
        stacked = np.array([seg.state(s) for s in ss])
        assert [v.hex() for v in states.ravel().tolist()] == \
            [v.hex() for v in stacked.ravel().tolist()]
        assert np.array_equal(seg.positions(ss), stacked[:, :2])
        assert seg.states([]).shape == (0, 4)

    def test_states_outside_segment_rejected(self, klein2):
        seg = integrate_geodesic(klein2, [0.2, 0.1], [-0.5, 1.0], 1.5)
        for ss in ([-0.1, 0.5], [0.5, 1.6]):
            with pytest.raises(DomainError):
                seg.states(ss)
            with pytest.raises(DomainError):
                seg.state(ss[0] if ss[0] < 0 else ss[1])

    def test_chord_length_sums_scalar_norms(self, klein2, ball2, randers_const):
        for metric in (klein2, ball2, randers_const):
            x, y = np.array([0.1, -0.3]), np.array([-0.4, 0.5])
            d = y - x
            acc = 0.0
            for t in (np.arange(64) + 0.5) / 64:
                acc += metric.norm(x + t * d, d)
            assert geodesics._chord_length(metric, x, y).hex() == (acc / 64).hex()

    def test_klein_spray_off_the_ball_is_nan(self, klein2):
        for x in ([1.0, 0.0], [0.6, 0.8], [1.2, 0.0]):
            assert not np.any(np.isfinite(klein2.spray_vector(np.array(x), np.array([0.3, 1.0]))))

    def test_stiffness_error(self):
        class Blowup(EuclideanMetric):
            name = "blowup"
            spray_supports_jets = False

            def spray_vector(self, x, y):
                return np.array([-1.0 / (0.5 - x[0]) ** 2, 0.0])

        with pytest.raises(StiffnessError):
            integrate_geodesic(Blowup(2), [0.0, 0.0], [1.0, 0.0], 10.0)


def solve_ivp_reference(metric, x0, y0, end, margin):
    """scipy's solve_ivp DOP853 on the same unit-speed start, right-hand side,
    tolerances and terminal boundary event as the stepper."""
    n = metric.dimension
    z0 = geodesics._unit_state(metric, x0, y0)

    def rhs(s, z):
        g = metric.spray_vector(z[:n], z[n:])
        g = geodesics._spray_from_tensor(metric, z[:n], z[n:]) if g is None else g
        return np.concatenate([z[n:], -np.asarray(g, dtype=float)])

    def boundary(s, z):
        return metric.domain_value(z[:n]) - margin * metric.domain_scale

    boundary.terminal = True
    return integrate.solve_ivp(rhs, (0.0, end), z0, method="DOP853", rtol=1e-11,
                               atol=1e-12, dense_output=True,
                               events=[boundary] if metric.bounded_domain else None)


def spray_cut_at_half(jets):
    """Flat metric whose spray raises ZeroDivisionError for x^0 >= 1/2, through
    the float closed form (jets) or the analytic provider."""
    class Cut(EuclideanMetric):
        name = "cut"
        spray_supports_jets = jets

        def spray_vector(self, x, y):
            return np.array(self._spray_impl(x, y))

        def _spray_impl(self, x, y):
            if x[0] >= 0.5:
                raise ZeroDivisionError("past the cut")
            return [0.0] * len(y)

    return Cut(2)


STEPPER_METRICS = {
    "klein2": lambda: klein_metric(2), "klein3": lambda: klein_metric(3),
    "ball2": lambda: funk_ball(2), "blackbox-klein2": lambda: blackbox_klein(2),
    "randers": lambda: randers_metric(RandersSpec(2, np.eye(2), np.array([0.3, -0.2]))),
}


class TestStepper:
    """The float DOP853 stepper against scipy's solve_ivp, which stays the
    reference here only."""

    @pytest.mark.parametrize("name", sorted(STEPPER_METRICS))
    @pytest.mark.parametrize("x0, y0", [([0.1, 0.2, -0.1], [0.3, -0.4, 0.2]),
                                        ([-0.5, 0.3, 0.2], [-0.2, -0.6, 0.1])])
    def test_integration_matches_solve_ivp(self, name, x0, y0):
        metric = STEPPER_METRICS[name]()
        x0, y0 = x0[:metric.dimension], y0[:metric.dimension]
        seg = integrate_geodesic(metric, x0, y0, 1.5)
        ref = solve_ivp_reference(metric, x0, y0, 1.5, BOUNDARY_MARGIN)
        assert seg.steps == len(ref.t) - 1 and seg.s_max == pytest.approx(ref.t[-1], abs=1e-12)
        ss = np.linspace(0.0, seg.s_max, 50)
        assert np.abs(seg.states(ss) - ref.sol(ss).T).max() <= 1e-12

    @pytest.mark.parametrize("name", ["klein2", "klein3", "ball2", "randers"])
    def test_extension_interior_matches_solve_ivp(self, name):
        metric = STEPPER_METRICS[name]()
        x0, y0 = [0.1, 0.2, -0.1][:metric.dimension], [0.3, -0.4, 0.2][:metric.dimension]
        seg = extend_geodesic(metric, x0, y0, cap=20.0)
        for end, side in ((20.0, np.linspace(0.0, min(5.0, seg.s_max), 40)),
                          (-20.0, np.linspace(max(-5.0, seg.s_min), 0.0, 40))):
            ref = solve_ivp_reference(metric, x0, y0, end, geodesics.EXTENSION_MARGIN)
            assert np.abs(seg.states(side) - ref.sol(side).T).max() <= 1e-10

    def test_tableau_is_hairers(self):
        # c2 is the first row sum of A: the stepper reads A and B, not C
        (s, a), = geodesics._STAGES[:1]
        assert s == 1 and a.tolist() == [0.526001519587677318785587544488e-01]
        assert geodesics._DOP.B[0] == 5.42937341165687622380535766363e-2

    @pytest.mark.parametrize("jets", [True, False])
    def test_zero_division_stage_is_a_rejected_step(self, jets):
        metric = spray_cut_at_half(jets)
        with pytest.raises(StiffnessError):
            integrate_geodesic(metric, [0.0, 0.0], [1.0, 0.0], 2.0)
        seg = extend_geodesic(metric, [0.0, 0.0], [1.0, 0.0], cap=2.0)
        assert seg.truncated_forward and 0.49 < seg.s_max < 0.5
        assert not seg.truncated_backward and seg.s_min == -2.0

    def test_dense_output_stage_past_the_sphere_rejects_the_step(self, klein3):
        # near the sphere a step passes its error test while one of its three
        # dense-output stages lands past the sphere; kept, its NaN interpolant
        # made brentq raise ValueError while locating the boundary stop
        x0 = [float.fromhex(v) for v in ("-0x1.a1b2523189779p-2", "0x1.1e5d511cce7d3p-3",
                                         "-0x1.0404c1652ebf7p-4")]
        y0 = [float.fromhex(v) for v in ("0x1.3968290aa9fd1p-1", "-0x1.e961694d5b558p-2",
                                         "0x1.0e8d7abd9397dp-2")]
        seg = extend_geodesic(klein3, x0, y0)
        for s in (seg.s_min, seg.s_max):
            x = seg.position(s)
            assert 1.0 - x @ x == pytest.approx(1e-12, rel=1e-2)
        # the rejected step's three dense-output calls come on top
        assert seg.nfev == 2 * 2 + 12 * (seg.steps + seg.rejected) + 3 * (seg.steps + 1)

    def test_nan_step_fails_instead_of_looping(self, klein2):
        # tol = 0 makes the error scale 0 at a zero component: the first step
        # is NaN, on which scipy's loop never ends
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(StiffnessError):
            integrate_geodesic(klein2, [0.0, 0.0], [1.0, 0.0], 1.0, tol=0.0)

    def test_integration_counts_repeat_and_add_up(self, klein2, ball2):
        for build in (lambda: extend_geodesic(klein2, [0.1, 0.2], [0.3, -0.4]),
                      lambda: integrate_geodesic(ball2, [0.2, 0.1], [-0.5, 1.0], 1.5),
                      lambda: integrate_geodesic(ball2, [0.2, 0.1], [-0.5, 1.0], 1.5).clipped(0.7)):
            seg = build()
            legs = (seg.s_min < 0) + (seg.s_max > 0)
            assert seg.rejected >= 0 and seg.steps > 0
            assert seg.nfev == 2 * legs + 12 * (seg.steps + seg.rejected) + 3 * seg.steps
            assert (seg.steps, seg.rejected, seg.nfev) == (build().steps, build().rejected,
                                                           build().nfev)


def klein_distance(p, q):
    return math.acosh((1 - p @ q) / math.sqrt((1 - p @ p) * (1 - q @ q)))


def funk_ball_distance(p, q):
    w = (q - p) / np.linalg.norm(q - p)
    b = p @ w
    z = p + (-b + math.sqrt(b * b - (p @ p - 1.0))) * w  # forward boundary hit
    return math.log(np.linalg.norm(p - z) / np.linalg.norm(q - z))


def poincare_disk():
    """g = 4I/(1-|x|^2)^2: chords miss the geodesics except through 0."""
    def christoffel(x):
        ds = 2.0 * x / (1.0 - x @ x)  # gradient of the conformal exponent
        eye = np.eye(2)
        return (eye[:, :, None] * ds[None, None, :] + eye[:, None, :] * ds[None, :, None]
                - eye[None, :, :] * ds[:, None, None])

    return RiemannianMetric(RiemannianSpec(
        dimension=2, metric_provider=lambda x: 4.0 * np.eye(2) / (1.0 - x @ x) ** 2,
        christoffel_provider=christoffel, domain_provider=lambda x: 1.0 - float(x @ x),
        name="poincare"))


class TestConnect:
    def test_euclidean_diagonal(self, eucl2):
        result = connect(eucl2, [0.0, 0.0], [1.0, 1.0])
        assert result.segment.length == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert result.miss <= 1e-8

    def test_klein_radial(self, klein2):
        assert finsler_distance(klein2, [0.0, 0.0], [0.5, 0.0]) == pytest.approx(
            math.atanh(0.5), abs=1e-6)

    def test_funk_asymmetric_distances(self, ball2):
        fwd = finsler_distance(ball2, [0.0, 0.0], [0.5, 0.0])
        back = finsler_distance(ball2, [0.5, 0.0], [0.0, 0.0])
        assert fwd == pytest.approx(math.log(2.0), abs=1e-6)
        assert back == pytest.approx(math.log(1.5), abs=1e-6)

    def test_identity_distance_zero(self, klein2):
        assert finsler_distance(klein2, [0.2, 0.1], [0.2, 0.1]) == 0.0

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_connect_rejects_bad_tolerance(self, klein2, tol, monkeypatch):
        # rejected up front: no shot is integrated
        monkeypatch.setattr(geodesics, "integrate_geodesic", None)
        with pytest.raises(DomainError):
            connect(klein2, [0.0, 0.0], [0.3, 0.1], tol=tol)

    def test_connect_rejects_equal_points(self, klein2):
        with pytest.raises(ConnectivityError):
            connect(klein2, [0.2, 0.1], [0.2, 0.1])

    def test_unmet_tolerance_reports_best_miss(self, klein2):
        with pytest.raises(ConnectivityError) as info:
            connect(klein2, [0.1, 0.2], [-0.3, 0.4], tol=1e-300, max_nfev=2)
        assert info.value.best_miss == pytest.approx(2.5e-11, rel=0.01)

    def test_klein_generic_pairs_against_closed_form(self, klein2, rng):
        for _ in range(6):
            p = klein2.random_interior_point(rng)
            q = klein2.random_interior_point(rng)
            assert finsler_distance(klein2, p, q) == pytest.approx(
                klein_distance(p, q), abs=2e-7)

    def test_funk_generic_pairs_against_closed_form(self, ball2, rng):
        for _ in range(5):
            p = ball2.random_interior_point(rng)
            q = ball2.random_interior_point(rng)
            if np.allclose(p, q):
                continue
            assert finsler_distance(ball2, p, q) == pytest.approx(
                funk_ball_distance(p, q), abs=2e-7)

    def test_first_shot_hit_returns_clipped_shot(self, eucl2, klein2, ball2,
                                                 randers_const, rng):
        exact = {eucl2: lambda p, q: float(np.linalg.norm(q - p)),
                 klein2: klein_distance, ball2: funk_ball_distance,
                 randers_const: lambda p, q: float(np.linalg.norm(q - p) + 0.5 * (q - p)[0])}
        for metric, distance in exact.items():
            for _ in range(4):
                p = 0.85 * metric.random_interior_point(rng)
                q = 0.85 * metric.random_interior_point(rng)
                result = connect(metric, p, q)
                seg = result.segment
                assert result.iterations == 1
                assert result.miss <= 1e-8
                assert seg.length == pytest.approx(distance(p, q), abs=1e-6)
                assert seg.sample_s.max() == seg.s_max and seg.s_min == 0.0
                assert np.array_equal(seg.sample_states[-1], seg.state(seg.s_max))
                assert seg.unit_speed_drift() <= 1e-7

    def test_solver_path_shoots_each_direction_once(self, monkeypatch):
        # least_squares re-evaluates its start and its accepted point; those
        # shots must come from the memo, not from a second integration
        directions = []
        integrate = geodesics.integrate_geodesic

        def recording(metric, x0, y0, length, **kw):
            directions.append(np.asarray(y0, dtype=float).tobytes())
            return integrate(metric, x0, y0, length, **kw)

        monkeypatch.setattr(geodesics, "integrate_geodesic", recording)
        result = connect(poincare_disk(), np.array([0.3, 0.1]), np.array([-0.2, 0.4]))
        assert result.iterations > 1
        assert len(directions) == result.iterations
        assert len(set(directions)) == len(directions)

    def test_solver_path_ends_at_target(self):
        metric = poincare_disk()
        p = np.array([0.3, 0.1])
        q = np.array([-0.2, 0.4])
        result = connect(metric, p, q)
        seg = result.segment
        assert result.iterations > 1
        assert result.miss <= 1e-8
        assert np.linalg.norm(seg.position(seg.s_max) - q) <= 1e-8
        assert seg.sample_s.max() == seg.s_max
        exact = math.acosh(1 + 2 * np.sum((p - q) ** 2) / ((1 - p @ p) * (1 - q @ q)))
        assert seg.length == pytest.approx(exact, abs=1e-6)


class TestDistanceProperties:
    def test_triangle_inequality(self, eucl2, klein2, ball2, randers_const, rng):
        for metric in (eucl2, klein2, ball2, randers_const):
            for _ in range(100):
                pts = [0.7 * metric.random_interior_point(rng) for _ in range(3)]
                d02 = finsler_distance(metric, pts[0], pts[2])
                d01 = finsler_distance(metric, pts[0], pts[1])
                d12 = finsler_distance(metric, pts[1], pts[2])
                assert d02 <= d01 + d12 + 1e-6

    def test_projective_flatness_shared_chords(self, eucl2, klein2, ball2, rng):
        # geodesics of the three metrics through shared endpoints coincide
        # as point sets: every sample lies on the straight chord
        x = np.array([-0.3, -0.1])
        y = np.array([0.4, 0.35])
        unit = (y - x) / np.linalg.norm(y - x)
        for metric in (eucl2, klein2, ball2):
            seg = connect(metric, x, y).segment
            worst = 0.0
            for s in np.linspace(0.0, seg.s_max, 50):
                d = seg.position(s) - x
                worst = max(worst, abs(d[0] * unit[1] - d[1] * unit[0]))
            assert worst <= 1e-5
