"""Ricci scalar and tensor, the bound checker, and the projective factor."""

import math

import numpy as np
import pytest

from finslerproj import curvature, geodesics
from finslerproj.curvature import (check_ricci_bound, curvature_matrix,
                                   projective_factor, ricci_scalar,
                                   ricci_scalar_batch, ricci_tensor,
                                   verify_ric_transformation)
from finslerproj.core import boundary_room
from finslerproj.diffengine import fundamental_tensor, hessian_offsets
from finslerproj.errors import (AccuracyError, ConstructionError, ConvexityError,
                                DomainError, FinslerError, NotProjectiveError)
from finslerproj.geodesics import spray_batch, spray_vector
from finslerproj.metrics import (EuclideanMetric, QuadraticDomainSpec, RandersMetric,
                                 RandersSpec, RiemannianMetric, RiemannianSpec, funk_ball,
                                 funk_from_quadratic, klein_metric, randers_metric)

from test_diffengine import stripped


def riemann_ricci_oracle(g_fn, x, h=1e-4):
    """Textbook Riemannian pipeline: finite-difference Christoffels of g(x),
    then the curvature contraction R_jk = dGamma^i_jk/dx^i - d Gamma^i_ik/dx^j
    + Gamma Gamma terms. Independent of the spray machinery."""
    n = len(x)

    def gamma(xx):
        dg = np.empty((n, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            dg[:, :, k] = (g_fn(xx - 2 * e) - 8 * g_fn(xx - e)
                           + 8 * g_fn(xx + e) - g_fn(xx + 2 * e)) / (12 * h)
        ginv = np.linalg.inv(g_fn(xx))
        out = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i, j, k] = 0.5 * sum(
                        ginv[i, s] * (dg[s, j, k] + dg[s, k, j] - dg[j, k, s])
                        for s in range(n))
        return out

    dgamma = np.empty((n, n, n, n))  # dGamma^i_jk / dx^l
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        dgamma[:, :, :, l] = (gamma(x - 2 * e) - 8 * gamma(x - e)
                              + 8 * gamma(x + e) - gamma(x + 2 * e)) / (12 * h)
    gam = gamma(x)
    ric = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            ric[j, k] = sum(dgamma[i, j, k, i] - dgamma[i, j, i, k]
                            for i in range(n))
            ric[j, k] += sum(gam[i, i, l] * gam[l, j, k]
                             - gam[i, j, l] * gam[l, i, k]
                             for i in range(n) for l in range(n))
    return ric


class TestRicciScalar:
    def test_euclidean_vanishes(self, eucl2):
        assert abs(ricci_scalar(eucl2, [0.3, 0.1], [1.0, 2.0])) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_klein_constant(self, n, rng):
        from finslerproj.metrics import klein_metric
        metric = klein_metric(n)
        for x, y in metric.random_line_elements(10, rng):
            assert ricci_scalar(metric, x, y) == pytest.approx(-(n - 1), abs=1e-10)

    def test_funk_ball_constant_quarter(self, ball2, rng):
        values = [ricci_scalar(ball2, x, y)
                  for x, y in ball2.random_line_elements(20, rng)]
        assert max(values) - min(values) <= 1e-10
        assert np.mean(values) == pytest.approx(-0.25, abs=1e-10)

    def test_zero_homogeneous_in_y(self, ball2, rng):
        x, y = ball2.random_line_elements(1, rng)[0]
        base = ricci_scalar(ball2, x, y)
        for lam in (0.5, 1.3, 2.0):
            assert abs(ricci_scalar(ball2, x, lam * np.asarray(y)) - base) <= 1e-4

    def test_power_of_two_scales_of_y_are_exact(self):
        # F^2 underflows from about 2^-537 y and overflows from about 2^512 y;
        # Ric runs at y 2^-e with max|y 2^-e| in [1/2, 1), so no scale shows
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        metrics = {"klein2": klein_metric(2), "klein3": klein_metric(3),
                   "funk-ball3": funk_ball(3), "blackbox-klein2": blackbox_klein(2)}
        side = st.floats(0.125, 8.0) | st.floats(-8.0, -0.125)

        @hypothesis.settings(max_examples=120, derandomize=True, deadline=None,
                             database=None)
        @hypothesis.given(st.sampled_from(sorted(metrics)), st.integers(-1000, 1000),
                          st.integers(0, 2 ** 32 - 1), st.lists(side, min_size=3, max_size=3))
        def check(name, k, seed, y):
            metric = metrics[name]
            x = metric.random_interior_point(np.random.default_rng(seed))
            y = np.array(y[:metric.dimension])
            assert ricci_scalar(metric, x, np.ldexp(y, k)).hex() == \
                ricci_scalar(metric, x, y).hex()

        check()

    def test_fd_fallback_path_matches_jets(self, klein2):
        # strip the jet capability to exercise the stencil pipeline
        class NoJets(type(klein2)):
            closed_form = False

        stripped = NoJets(2)
        x, y = [0.3, -0.2], [0.7, 0.4]
        assert ricci_scalar(stripped, x, y) == pytest.approx(
            ricci_scalar(klein2, x, y), abs=1e-6)


def anisotropic_ellipsoid(n, seed):
    """Seeded Funk ellipsoid: rotated semi-axes in [0.6, 1.4], centre offset."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    alpha = -(q @ np.diag(rng.uniform(0.6, 1.4, n) ** -2) @ q.T)
    alpha = 0.5 * (alpha + alpha.T)
    centre = rng.uniform(-0.15, 0.15, n)
    return funk_from_quadratic(QuadraticDomainSpec(
        alpha=alpha, beta=-alpha @ centre, gamma=1.0 + centre @ alpha @ centre, k=1.3))


BATCH_METRICS = {
    "klein2": lambda: klein_metric(2),
    "klein3": lambda: klein_metric(3),
    "klein5": lambda: klein_metric(5),
    "funk_ball2": lambda: funk_ball(2),
    "funk_ball3": lambda: funk_ball(3),
    "funk_ellipsoid3": lambda: anisotropic_ellipsoid(3, 4),
    "randers_const2": lambda: randers_metric(
        RandersSpec(2, np.array([[1.2, 0.1], [0.1, 0.9]]), np.array([0.2, -0.1]))),
    "euclidean2": lambda: EuclideanMetric(2),
    "klein2_blackbox": lambda: blackbox_klein(2),
    "klein3_blackbox": lambda: blackbox_klein(3),
    "radial_randers": lambda: radial_randers(),
}


class TestRicciScalarBatch:
    """One jet pass over (N,) coefficient arrays, or one stencil pass over
    the whole stack, reproduces N scalar passes bit for bit."""

    @pytest.mark.parametrize("name", sorted(BATCH_METRICS))
    def test_batch_equals_batches_of_one(self, name):
        metric = BATCH_METRICS[name]()
        elements = metric.random_line_elements(24, np.random.default_rng(31))
        X = np.array([x for x, _ in elements])
        Y = np.array([y for _, y in elements])
        batch = ricci_scalar_batch(metric, X, Y)
        assert batch.shape == (24,)
        singles = [ricci_scalar_batch(metric, x[None], y[None])[0] for x, y in zip(X, Y)]
        assert [v.hex() for v in batch.tolist()] == [float(v).hex() for v in singles]
        assert [ricci_scalar(metric, x, y) for x, y in zip(X, Y)] == batch.tolist()

    def test_ellipsoid_batch_takes_both_funk_branches(self):
        metric = anisotropic_ellipsoid(3, 4)
        elements = metric.random_line_elements(24, np.random.default_rng(31))
        wy = [float((metric.spec.alpha @ x + metric.spec.beta) @ y) for x, y in elements]
        assert min(wy) < 0.0 < max(wy)

    @pytest.mark.parametrize("metric, x, y, pinned", [
        (klein_metric(3), [0.1, -0.2, 0.3], [0.4, 0.5, -0.6], "-0x1.0000000000001p+1"),
        (funk_ball(2), [0.3, -0.1], [1.0, 0.7], "-0x1.0000000000006p-2"),
        (funk_from_quadratic(QuadraticDomainSpec(
            alpha=np.array([[-1.5, 0.3], [0.3, -0.8]]), beta=np.array([0.1, -0.05]),
            gamma=1.0, k=1.3)), [0.2, 0.1], [-0.4, 0.9], "-0x1.b0a3d70a3d6fdp-2"),
    ])
    def test_values_pinned_to_the_scalar_jet_route(self, metric, x, y, pinned):
        # bit patterns of the element-by-element jet implementation this
        # batch replaced
        assert ricci_scalar(metric, x, y).hex() == pinned

    @pytest.mark.parametrize("name, ric", [
        ("klein2", -1.0), ("klein3", -2.0), ("klein5", -4.0),
        ("funk_ball2", -0.25), ("funk_ball3", -0.5),
        ("funk_ellipsoid2", -1.3 ** 2 / 4), ("funk_ellipsoid3", -2 * 1.3 ** 2 / 4),
    ])
    def test_einstein_constant_to_roundoff(self, name, ric):
        # Klein: Ric = -(n - 1); Funk with constant k: Ric = -(n - 1) k^2 / 4
        metric = (anisotropic_ellipsoid(2, 1) if name == "funk_ellipsoid2"
                  else BATCH_METRICS[name]())
        elements = metric.random_line_elements(100, np.random.default_rng(19))
        X = np.array([x for x, _ in elements])
        Y = np.array([y for _, y in elements])
        assert np.abs(ricci_scalar_batch(metric, X, Y) - ric).max() <= 1e-14

    @pytest.mark.parametrize("name", ["klein3", "funk_ellipsoid3", "randers_const2",
                                      "euclidean2"])
    def test_one_spray_pass(self, name, monkeypatch):
        metric = BATCH_METRICS[name]()
        calls = []

        def counting(x, y, impl=metric._spray_impl):
            calls.append(len(x))
            return impl(x, y)

        monkeypatch.setattr(metric, "_spray_impl", counting)
        elements = metric.random_line_elements(24, np.random.default_rng(31))
        ricci_scalar_batch(metric, [x for x, _ in elements], [y for _, y in elements])
        assert calls == [metric.dimension]

    def test_empty_batch(self):
        for metric in (klein_metric(2), blackbox_klein(2)):  # jet and stencil routes
            assert ricci_scalar_batch(metric, np.empty((0, 2)), np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("name, bad", [
        ("klein", ([1.2, 0.0], [1.0, 0.0])),       # outside the ball
        ("klein", ([0.1, 0.0], [0.0, 0.0])),       # zero vector
        ("klein", ([0.1, 0.0], [np.nan, 1.0])),    # non-finite vector
        ("saddle", ([0.0, 0.0], [1.0, 0.0])),      # a_ij y y < 0
    ])
    def test_invalid_element_raises_like_its_scalar_call(self, name, bad):
        if name == "klein":
            metric = klein_metric(2)
        else:
            with pytest.warns(UserWarning):
                metric = funk_from_quadratic(QuadraticDomainSpec(
                    alpha=np.diag([0.5, -1.0]), beta=np.zeros(2), gamma=1.0))
        X = np.array([[0.1, 0.1], [0.0, 0.0], bad[0]])
        Y = np.array([[0.1, 1.0], [0.0, 1.0], bad[1]])
        with pytest.raises(FinslerError) as scalar:
            ricci_scalar(metric, *bad)
        assert type(scalar.value) in (DomainError, ConvexityError)
        with pytest.raises(FinslerError) as batch:
            ricci_scalar_batch(metric, X, Y)
        assert type(batch.value) is type(scalar.value)

    @pytest.mark.parametrize("X, Y", [
        (np.zeros((2, 2)), np.ones((3, 2))),     # stacks of different length
        (np.zeros((2, 3)), np.ones((2, 3))),     # wrong dimension
        (np.zeros(2), np.ones(2)),               # a single element, not a stack
    ])
    def test_malformed_stacks_rejected(self, X, Y):
        with pytest.raises(DomainError):
            ricci_scalar_batch(klein_metric(2), X, Y)


class TestRicciTensor:
    def test_euclidean_zero_matrix(self, eucl2):
        data = ricci_tensor(eucl2, [0.1, 0.0], [1.0, 0.5])
        assert np.abs(data.ric_tensor).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_klein_einstein_property(self, n, rng):
        from finslerproj.metrics import klein_metric
        metric = klein_metric(n)
        for x, y in metric.random_line_elements(8, rng):
            data = ricci_tensor(metric, x, y)
            g = fundamental_tensor(metric, x, y)
            assert np.abs(data.ric_tensor + (n - 1) * g).max() <= 1e-4

    def test_klein_against_riemannian_oracle(self, klein2):
        x = np.array([0.25, -0.15])
        data = ricci_tensor(klein2, x, np.array([0.6, 0.3]))
        oracle = riemann_ricci_oracle(lambda xx: klein2.metric_tensor(xx, None), x)
        assert np.abs(data.ric_tensor - oracle).max() <= 1e-5

    def test_funk_einstein_scaling(self, ball2, rng):
        for x, y in ball2.random_line_elements(5, rng):
            data = ricci_tensor(ball2, x, y)
            g = fundamental_tensor(ball2, x, y)
            assert np.abs(data.ric_tensor + 0.25 * g).max() <= 1e-3

    def test_contraction_identity(self, klein2, ball2, rng):
        for metric in (klein2, ball2):
            for x, y in metric.random_line_elements(5, rng):
                assert ricci_tensor(metric, x, y).contraction_residual <= 1e-4

    def test_riemannian_tensor_y_independent(self, klein2, rng):
        x = klein2.random_interior_point(rng)
        t1 = ricci_tensor(klein2, x, rng.normal(size=2)).ric_tensor
        t2 = ricci_tensor(klein2, x, rng.normal(size=2)).ric_tensor
        assert np.abs(t1 - t2).max() <= 1e-4

    @staticmethod
    def scalar_loop_tensor(metric, x, y, step=curvature.TENSOR_STEP):
        """Ric_ij and Ric differenced entry by entry on Python floats: the
        reference for the stacked differencing of ricci_tensor."""
        n = metric.dimension
        h = step * float(np.abs(y).max())
        offsets = hessian_offsets(n)
        ric, f2 = curvature._ricci_and_energy(
            metric, np.tile(x, (len(offsets), 1)), y + h * np.array(offsets, dtype=float))
        w = dict(zip(offsets, (f2 * ric).tolist()))
        r = lambda *pairs: w[tuple(dict(pairs).get(m, 0) for m in range(n))]
        hess = np.empty((n, n))
        for i in range(n):
            hess[i, i] = (-r((i, 2)) + 16 * r((i, 1)) - 30 * r() + 16 * r((i, -1))
                          - r((i, -2))) / (12 * h * h)
            for j in range(i + 1, n):
                c1, c2 = ((r((i, s), (j, s)) + r((i, -s), (j, -s)) - r((i, s), (j, -s))
                           - r((i, -s), (j, s))) / (4.0 * (s * h) ** 2) for s in (1, 2))
                hess[i, j] = hess[j, i] = (4.0 * c1 - c2) / 3.0
        return 0.5 * (hess + hess.T) * 0.5, r() / metric.norm(x, y) ** 2

    @pytest.mark.parametrize("make", [lambda: klein_metric(3),
                                      lambda: anisotropic_ellipsoid(3, 2)])
    def test_equals_scalar_loop(self, make, monkeypatch):
        metric = make()
        samples = metric.random_line_elements(4, np.random.default_rng(8))
        monkeypatch.setattr(curvature, "CONTRACTION_LIMIT", math.inf)
        for (x, y), data in zip(samples, curvature._ricci_tensors(metric, samples)):
            tensor, ric = self.scalar_loop_tensor(metric, x, y)
            assert hexes(data.ric_tensor.ravel()) == hexes(tensor.ravel())
            assert data.ric.hex() == ric.hex()

    def test_einstein_ratio_constant(self, klein2, ball2, rng):
        for metric, expected in ((klein2, -1.0), (ball2, -0.25)):
            ratios = []
            for x, y in metric.random_line_elements(5, rng):
                data = ricci_tensor(metric, x, y)
                g = fundamental_tensor(metric, x, y)
                ratios.append(np.trace(data.ric_tensor) / np.trace(g))
            assert max(ratios) - min(ratios) <= 1e-3
            assert ratios[0] == pytest.approx(expected, abs=1e-3)


    def test_tensors_and_unit_start_at_power_of_two_scales(self):
        # the 0-homogeneous y-quantities run at y scaled into [1/2, 1), so
        # each is the same float at 2^k y as at y, far past the scales where
        # F^2 over- or underflows
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        metrics = {"klein2": klein_metric(2), "klein3": klein_metric(3),
                   "funk-ball2": funk_ball(2), "blackbox-klein2": blackbox_klein(2)}
        side = st.floats(0.125, 8.0) | st.floats(-8.0, -0.125)

        def values(metric, x, y):
            data = ricci_tensor(metric, x, y)
            routes = [metric] + ([stripped(metric, True), stripped(metric, False)]
                                 if metric.metric_tensor(x, y) is not None
                                 and metric.closed_form else [])
            tensors = [fundamental_tensor(m, x, y) for m in routes]
            return [hexes(v.ravel()) for v in [data.ric_tensor, data.ell, *tensors,
                                               geodesics._unit_state(metric, x, y)]]

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None,
                             database=None)
        @hypothesis.given(st.sampled_from(sorted(metrics)), st.integers(-1000, 1000),
                          st.integers(0, 2 ** 32 - 1), st.lists(side, min_size=3, max_size=3))
        def check(name, k, seed, y):
            metric = metrics[name]
            x = metric.random_interior_point(np.random.default_rng(seed))
            y = np.array(y[:metric.dimension])
            assert values(metric, x, np.ldexp(y, k)) == values(metric, x, y)

        check()


class TestCurvatureMatrix:
    def test_trace_reproduces_ricci(self, klein2, ball2):
        for metric, expected in ((klein2, -1.0), (ball2, -0.25)):
            R = curvature_matrix(metric, [0.2, -0.3], [0.7, 0.4])
            assert np.trace(R) == pytest.approx(expected, abs=1e-6)


class TestRicciBound:
    def test_klein_passes_at_equality(self, klein2, rng):
        report = check_ricci_bound(klein2, klein2.random_line_elements(10, rng), 1.0)
        assert report.passed
        assert abs(report.worst) <= 1e-4

    def test_euclidean_fails_any_c(self, eucl2, rng):
        report = check_ricci_bound(eucl2, eucl2.random_line_elements(5, rng), 0.7)
        assert not report.passed
        assert report.worst == pytest.approx(0.49, abs=1e-6)

    def test_funk_passes_at_quarter(self, ball2, rng):
        report = check_ricci_bound(ball2, ball2.random_line_elements(10, rng), 0.5)
        assert report.passed
        assert abs(report.worst) <= 1e-3

    def test_positive_c_required(self, klein2):
        with pytest.raises(ConstructionError):
            check_ricci_bound(klein2, [([0.0, 0.0], [1.0, 0.0])], -1.0)

    @pytest.mark.parametrize("c, tolerance", [
        (math.inf, 1e-3), (math.nan, 1e-3), (1e200, 1e-3)])
    def test_constant_and_tolerance_finite_and_positive(self, klein2, c, tolerance):
        # the tolerance is a module constant; a c of 1e200 squared to inf and
        # reported a nan eigenvalue
        assert curvature.RICCI_BOUND_TOLERANCE == tolerance
        with pytest.raises(ConstructionError):
            check_ricci_bound(klein2, [([0.0, 0.0], [1.0, 0.0])], c)

    def test_y_step_without_a_square(self, klein2):
        # y is scaled into [1/2, 1) before its stencil: at 2^-997 the tensor
        # is the one at (1, 0) bit for bit, and at 1e-300, with no power-of-two
        # ratio to (1, 0), it is still Klein's -g
        x = [0.1, 0.0]
        tiny = ricci_tensor(klein2, x, [2.0 ** -997, 0.0]).ric_tensor
        unit = ricci_tensor(klein2, x, [1.0, 0.0]).ric_tensor
        assert hexes(tiny.ravel()) == hexes(unit.ravel())
        data = ricci_tensor(klein2, x, [1e-300, 0.0])
        g = fundamental_tensor(klein2, x, [1e-300, 0.0])
        assert np.abs(data.ric_tensor + g).max() <= 1e-4


def blackbox_klein(n, calls=None):
    """The Klein tensor as a bare provider, with no Christoffels: its spray
    takes the formal-Christoffel stencil route. `calls`, a list, counts the
    provider evaluations."""
    def g(x):
        if calls is not None:
            calls.append(1)
        phi = 1.0 - float(x @ x)
        return np.eye(len(x)) / phi + np.outer(x, x) / phi ** 2

    return RiemannianMetric(RiemannianSpec(
        dimension=n, metric_provider=g, domain_provider=lambda x: 1.0 - float(x @ x),
        name="klein-blackbox"))


def radial_randers():
    """A Randers metric whose a and b vary with x: its tensor depends on y
    and its spray has no jet form."""
    return randers_metric(RandersSpec(
        2, lambda x: np.eye(2) * (1.0 + 0.1 * (x @ x)), lambda x: 0.1 * np.array([x[0], x[1]]),
        name="radial-randers"))


def tensorless_randers():
    """radial_randers with its analytic tensor withheld: the x-data then
    comes from fundamental_tensor's y-Hessian stencil over the norm."""
    class Tensorless(RandersMetric):
        def metric_tensor(self, x, y):
            return None

    return Tensorless(radial_randers().spec)


def xdata_reference(metric, x, y):
    """_spray_xdata by the per-axis 5-point arithmetic it replaced: g at
    x - 2e, x - e, x + e, x + 2e along each axis, combined one axis at a time."""
    def g_at(xx):
        ga = metric.metric_tensor(xx, y)
        if ga is None:
            return fundamental_tensor(metric, xx, y)
        return 0.5 * (np.asarray(ga, dtype=float) + np.asarray(ga, dtype=float).T)

    n = metric.dimension
    h = (1e-5 if metric.metric_tensor(x, y) is not None else 1e-3) * max(1.0, np.abs(x).max())
    h = min(h, 0.25 * boundary_room(metric, x))
    dg = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        fm2, fm1, fp1, fp2 = (g_at(p) for p in (x - 2 * e, x - e, x + e, x + 2 * e))
        dg[:, :, k] = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    return g_at(x), dg


def probe_ellipsoid():
    """Funk metric of a rotated ellipsoid with semi-axes 0.45, 1.0, 1.6,
    where ricci_tensor's fixed y-step misses its contraction limit."""
    a, b, c = 0.3, -0.5, 0.7
    rx = np.array([[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]])
    ry = np.array([[math.cos(b), 0, math.sin(b)], [0, 1, 0], [-math.sin(b), 0, math.cos(b)]])
    rz = np.array([[math.cos(c), -math.sin(c), 0], [math.sin(c), math.cos(c), 0], [0, 0, 1]])
    rot = rz @ ry @ rx
    A = rot @ np.diag(np.array([0.45, 1.0, 1.6]) ** -2.0) @ rot.T
    return funk_from_quadratic(QuadraticDomainSpec(alpha=-0.5 * (A + A.T), beta=np.zeros(3),
                                                   gamma=1.0))


PROBE_ELEMENT = ([-0.063, 0.314, 0.365], [0.345, 0.418, -1.505])


def hexes(values):
    return [float(v).hex() for v in np.ravel(values).tolist()]


class TestBlackBoxRoute:
    """The stencil route shares each point's tensor x-data between the
    y-offsets of one batch; the values are those of recomputing it."""

    # bit patterns of the route that recomputed the x-data on every spray call
    @pytest.mark.parametrize("make, x, y, scalar, tensor", [
        (lambda: blackbox_klein(2), [0.3, -0.2], [0.7, 0.4], "-0x1.fffff336740ddp-1",
         ["-0x1.44b1595b2005fp+0", "0x1.44b1abe9f9aecp-4",
          "0x1.44b1abe9f9aecp-4", "-0x1.33c8237b82923p+0"]),
        (lambda: blackbox_klein(3), [0.1, -0.2, 0.3], [0.4, 0.5, -0.6], "-0x1.fffff141a9c2fp+0",
         ["-0x1.2d22be8c9b19bp+1", "0x1.bb0ea8936a678p-5", "-0x1.4c4a151bc6f03p-4",
          "0x1.bb0ea8936a678p-5", "-0x1.3784f707baee1p+1", "0x1.4c49b1835481cp-3",
          "-0x1.4c4a151bc6f03p-4", "0x1.4c49b1835481cp-3", "-0x1.48d3824c9a5c0p+1"]),
        (radial_randers, [0.0, 0.1], [1.0, 0.0], "-0x1.890221e806d73p-3",
         ["-0x1.8997ad5e6370dp-3", "-0x1.795498ecf2894p-9",
          "-0x1.795498ecf2894p-9", "-0x1.8154a9b9ade20p-3"]),
    ])
    def test_values_pinned(self, make, x, y, scalar, tensor):
        metric = make()
        assert ricci_scalar(metric, x, y).hex() == scalar
        assert hexes(ricci_tensor(metric, x, y).ric_tensor) == tensor

    def test_curvature_matrix_pinned(self):
        R = curvature_matrix(blackbox_klein(2), [0.3, -0.2], [0.7, 0.4])
        assert hexes(R) == ["-0x1.c4ec4fa12e837p-3", "0x1.8c4ec5ad08b30p-2",
                            "0x1.c7bc7bcdeb645p-2", "-0x1.8ec4ec542df7cp-1"]

    def test_randers_contraction_failure_pinned(self):
        with pytest.raises(AccuracyError) as err:
            ricci_tensor(radial_randers(), [0.2, -0.3], [0.6, 0.8])
        assert err.value.achieved.hex() == "0x1.1cbfc78a79e80p-8"

    def test_xdata_computed_once_per_point(self):
        calls = []
        metric = blackbox_klein(2, calls)
        x = np.array([0.3, -0.2])
        ys = [np.array(y) for y in ([0.7, 0.4], [-1.0, 0.2], [0.1, 3.0])]
        shared = spray_batch(metric, np.array([x] * len(ys)), np.array(ys))
        per_point = len(calls)
        fresh = [spray_vector(metric, x, y) for y in ys]
        assert len(calls) == 4 * per_point  # each fresh call rebuilds the x-data
        assert [hexes(v) for v in shared] == [hexes(v) for v in fresh]

    def test_y_dependent_tensor_not_shared(self):
        metric = radial_randers()
        x = np.array([0.2, -0.3])
        ys = np.array([[0.6, 0.8], [-1.0, 0.1], [0.3, -0.9]])
        shared = spray_batch(metric, np.array([x] * len(ys)), ys)
        for g, y in zip(shared, ys):
            assert hexes(g) == hexes(spray_vector(metric, x, y))

    def test_analytic_subclass_spray_kept(self):
        class AnalyticKlein(RiemannianMetric):
            def spray_vector(self, x, y):
                return klein_metric(2).spray_vector(x, y)

        metric = AnalyticKlein(blackbox_klein(2).spec)
        x, y = np.array([0.3, -0.2]), np.array([0.7, 0.4])
        assert hexes(spray_batch(metric, x[None], y[None])[0]) == \
            hexes(klein_metric(2).spray_vector(x, y))

    @pytest.mark.parametrize("make", [lambda: blackbox_klein(2), lambda: blackbox_klein(3),
                                      radial_randers, lambda: tensorless_randers()])
    def test_xdata_equals_per_axis_stencil(self, make):
        metric = make()
        rng = np.random.default_rng(metric.dimension)
        for x, y in metric.random_line_elements(4, rng):
            g0, dg = geodesics._spray_xdata(metric, x, y)
            ref0, ref = xdata_reference(metric, x, y)
            assert hexes(g0) == hexes(ref0) and hexes(dg) == hexes(ref)
            assert dg.flags.c_contiguous

    def test_repeated_element_builds_one_xdata(self, monkeypatch):
        metric = radial_randers()
        calls = []
        xdata = geodesics._spray_xdata
        monkeypatch.setattr(geodesics, "_spray_xdata",
                            lambda *args: calls.append(1) or xdata(*args))
        X = np.array([[0.2, -0.3], [0.2, -0.3], [0.1, 0.4], [0.2, -0.3]])
        Y = np.array([[0.6, 0.8], [0.6, 0.8], [0.6, 0.8], [-1.0, 0.1]])
        G = spray_batch(metric, X, Y)
        assert len(calls) == 3  # one per distinct (x, y)
        monkeypatch.setattr(geodesics, "_spray_xdata", xdata)
        assert [hexes(g) for g in G] == [hexes(spray_vector(metric, x, y)) for x, y in zip(X, Y)]

    @pytest.mark.parametrize("make, x, y, message", [
        (lambda: blackbox_klein(2), [1.1, 0.0], [1.0, 0.0], "outside the domain"),
        (lambda: blackbox_klein(2), [0.1, 0.0], [0.0, 0.0], "nonzero vector"),
        (radial_randers, [0.1, 0.0], [np.nan, 0.0], "non-finite components"),
        (radial_randers, [np.inf, 0.0], [1.0, 0.0], "non-finite coordinates"),
    ])
    def test_invalid_row_raises_before_any_tensor_call(self, make, x, y, message,
                                                       monkeypatch):
        metric, calls = make(), []
        monkeypatch.setattr(geodesics, "_spray_xdata", lambda *args: calls.append(args))
        # valid rows before the invalid one, and a later row invalid in another way
        X = np.array([[0.1, 0.0], [0.2, 0.1], x, [0.3, 0.0]])
        Y = np.array([[1.0, 0.0], [0.5, 0.5], y, [0.0, -np.inf]])
        with pytest.raises(DomainError, match=message) as batch:
            spray_batch(metric, X, Y)
        with pytest.raises(DomainError) as own:
            metric.check_line_element(X[2], Y[2])
        assert str(batch.value) == str(own.value) and calls == []

    def test_shared_spray_still_validates(self):
        metric = blackbox_klein(2)
        spray_batch(metric, np.array([[0.1, 0.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(DomainError):
            spray_batch(metric, np.array([[0.1, 0.0], [0.1, 0.0]]),
                        np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            spray_batch(metric, np.array([[0.1, 0.0], [1.1, 0.0]]),
                        np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_one_solve_per_distinct_point(self, monkeypatch):
        # one sample's cloud shares its x, so the stencil visits 1 + 8n = 17
        # distinct points; each builds its x-data from 1 + 4n tensor calls
        # and contracts all its y's in one stacked solve
        calls, solves = [], []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        metric = blackbox_klein(2, calls)
        report = check_ricci_bound(metric, [([0.3, -0.2], [0.7, 0.4])], 1.0)
        assert report.passed
        cloud = len(hessian_offsets(2))
        assert len(solves) == 17 and all(len(shape) == 3 for shape in solves)
        assert sum(shape[0] for shape in solves) == cloud * (1 + 8 * 2 + 32 * 2 ** 2)
        # besides the x-data: F^2 over the cloud, g and F at the sample
        assert len(calls) == 17 * (1 + 4 * 2) + cloud + 2


class TestRicciBoundBatch:
    """check_ricci_bound makes one curvature pass over every sample's cloud
    and reports what a per-sample loop reports."""

    @staticmethod
    def loop_report(metric, samples, c):
        eigs, scales = [], []
        for x, y in samples:
            data = ricci_tensor(metric, x, y)
            g = fundamental_tensor(metric, x, y)
            eigs.append(float(np.linalg.eigvalsh(data.ric_tensor + c * c * g)[-1]))
            scales.append(max(1.0, float(np.abs(np.linalg.eigvalsh(g)).max())))
        return eigs, scales

    @pytest.mark.parametrize("make, count, c", [
        (lambda: klein_metric(2), 6, 1.0),
        (lambda: klein_metric(3), 4, math.sqrt(2.0)),
        (lambda: anisotropic_ellipsoid(2, 5), 4, 0.4),
        (lambda: blackbox_klein(2), 2, 1.0),
        (radial_randers, 1, 0.1),
    ])
    def test_report_equals_per_sample_loop(self, make, count, c):
        metric = make()
        samples = metric.random_line_elements(count, np.random.default_rng(17))
        if metric.name == "radial-randers":
            samples = [([0.0, 0.1], [1.0, 0.0])]
        report = check_ricci_bound(metric, samples, c)
        eigs, scales = self.loop_report(metric, samples, c)
        assert hexes(report.max_eigenvalues) == hexes(eigs)
        assert hexes(report.scales) == hexes(scales)

    def test_one_curvature_pass(self, monkeypatch):
        passes = []
        inner = curvature._ricci_and_energy

        def counted(metric, X, Y):
            passes.append(len(X))
            return inner(metric, X, Y)

        monkeypatch.setattr(curvature, "_ricci_and_energy", counted)
        metric = klein_metric(3)
        check_ricci_bound(metric, metric.random_line_elements(5, np.random.default_rng(3)),
                          math.sqrt(2.0))
        assert passes == [5 * 37]

    def test_invalid_second_sample_raises_before_curvature(self, monkeypatch):
        def no_curvature(*args):
            raise AssertionError("curvature work before every sample was validated")

        monkeypatch.setattr(curvature, "_ricci_and_energy", no_curvature)
        with pytest.raises(DomainError):
            check_ricci_bound(klein_metric(2), [([0.1, 0.2], [1.0, 0.0]),
                                                ([1.2, 0.0], [1.0, 0.0])], 1.0)

    def test_probe_element_raises_accuracy_error(self):
        metric = probe_ellipsoid()
        with pytest.raises(AccuracyError) as single:
            ricci_tensor(metric, *PROBE_ELEMENT)
        assert single.value.achieved.hex() == "0x1.08df28b39b000p-8"
        # a healthy element first: the probe's error is still the one raised
        healthy = ([0.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        ricci_tensor(metric, *healthy)
        with pytest.raises(AccuracyError) as batch:
            check_ricci_bound(metric, [healthy, PROBE_ELEMENT], 0.5)
        assert batch.value.achieved.hex() == "0x1.08df28b39b000p-8"

    def test_earlier_accuracy_error_wins_over_later_curvature_error(self):
        metric = blackbox_klein(2)
        failing = ([-0.5146, 0.8563], [0.395, 0.43])  # misses the contraction limit
        edge = ([1.0 - 2e-9, 0.0], [0.0, 1.0])  # valid, but no room for the x-stencil
        with pytest.raises(DomainError):
            ricci_tensor(metric, *edge)
        with pytest.raises(AccuracyError) as err:
            check_ricci_bound(metric, [failing, edge], 1.0)
        assert err.value.achieved.hex() == "0x1.d7ab49db88600p-10"
        with pytest.raises(DomainError):
            check_ricci_bound(metric, [edge, failing], 1.0)

    def test_empty_sample_set(self):
        report = check_ricci_bound(klein_metric(2), [], 1.0)
        assert report.max_eigenvalues == [] and not report.passed


class TestProjectiveFactor:
    def test_same_metric_zero(self, klein2):
        factor = projective_factor(klein2, klein2, [0.2, 0.1], [0.5, -0.3])
        assert factor.value == pytest.approx(0.0, abs=1e-12)

    def test_euclid_to_klein_value(self, eucl2, klein2):
        factor = projective_factor(eucl2, klein2, [0.5, 0.0], [1.0, 0.0])
        assert factor.value == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert factor.residual <= 1e-6

    def test_flat_pairs_fit_everywhere(self, eucl2, klein2, ball2, rng):
        for _ in range(20):
            x = klein2.random_interior_point(rng)
            y = rng.normal(size=2)
            projective_factor(eucl2, klein2, x, y)
            projective_factor(klein2, ball2, x, y)

    def test_curl_one_form_not_projective(self, eucl2, rng):
        metric = randers_metric(RandersSpec(
            2, lambda x: np.eye(2), lambda x: 0.3 * np.array([-x[1], x[0]]),
            name="curl-randers"))
        found = False
        for _ in range(30):
            x = metric.random_interior_point(rng)
            y = rng.normal(size=2)
            try:
                projective_factor(eucl2, metric, x, y)
            except NotProjectiveError as err:
                assert err.residual > 0
                found = True
                break
        assert found


class TestTransformationLaw:
    def test_identity_change_zero(self, klein2):
        assert verify_ric_transformation(klein2, klein2, [0.2, 0.0], [1.0, 0.4]) <= 1e-10

    def test_euclid_klein(self, eucl2, klein2, rng):
        for x, y in klein2.random_line_elements(15, rng):
            assert verify_ric_transformation(eucl2, klein2, x, y) <= 1e-3

    def test_klein_funk(self, klein2, ball2, rng):
        for x, y in klein2.random_line_elements(15, rng):
            assert verify_ric_transformation(klein2, ball2, x, y) <= 1e-3
