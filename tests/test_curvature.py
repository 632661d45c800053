"""Ricci scalar and tensor, the bound checker, and the projective factor."""

import numpy as np
import pytest

from finslerproj.curvature import (check_ricci_bound, curvature_matrix,
                                   projective_factor, ricci_scalar,
                                   ricci_scalar_batch, ricci_tensor,
                                   verify_ric_transformation)
from finslerproj.diffengine import fundamental_tensor
from finslerproj.errors import (ConstructionError, ConvexityError, DomainError,
                                FinslerError, NotProjectiveError)
from finslerproj.metrics import (EuclideanMetric, QuadraticDomainSpec, RandersSpec,
                                 funk_ball, funk_from_quadratic, klein_metric,
                                 randers_metric)


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

    def test_fd_fallback_path_matches_jets(self, klein2):
        # strip the jet capability to exercise the stencil pipeline
        class NoJets(type(klein2)):
            spray_supports_jets = False

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
}


class TestRicciScalarBatch:
    """One jet pass over (N,) coefficient arrays reproduces N scalar passes
    bit for bit."""

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

    def test_empty_batch(self):
        assert ricci_scalar_batch(klein_metric(2), np.empty((0, 2)), np.empty((0, 2))).shape == (0,)

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

    def test_einstein_ratio_constant(self, klein2, ball2, rng):
        for metric, expected in ((klein2, -1.0), (ball2, -0.25)):
            ratios = []
            for x, y in metric.random_line_elements(5, rng):
                data = ricci_tensor(metric, x, y)
                g = fundamental_tensor(metric, x, y)
                ratios.append(np.trace(data.ric_tensor) / np.trace(g))
            assert max(ratios) - min(ratios) <= 1e-3
            assert ratios[0] == pytest.approx(expected, abs=1e-3)


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
