"""The shipped metric catalogue."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from finslerproj.core import validate_homogeneity, validate_strong_convexity
from finslerproj.diffengine import Dual2, jet_value, jet_where, smooth_sqrt
from finslerproj.distance import funk_distance_interval
from finslerproj.errors import ConstructionError, DomainError, FinslerError
from finslerproj.metrics import (EuclideanMetric, KleinMetric,
                                 QuadraticDomainSpec, QuadraticFunkMetric, RandersSpec,
                                 RiemannianMetric, RiemannianSpec, _funk_theta, funk_ball,
                                 funk_from_quadratic, interval_funk_eval, klein_metric,
                                 randers_metric)


def ball_closed_form(x, y):
    phi = 1.0 - x @ x
    xy = float(x @ y)
    return (math.sqrt(phi * float(y @ y) + xy * xy) + xy) / phi


class TestQuadraticFunk:
    def test_unit_ball_at_origin_is_euclidean(self, ball2, rng):
        for _ in range(10):
            y = rng.normal(size=2)
            assert ball2.norm([0.0, 0.0], y) == pytest.approx(np.linalg.norm(y),
                                                              abs=1e-14)

    def test_pinned_point_value(self, ball2):
        assert abs(ball2.norm([0.5, 0.0], [1.0, 0.0]) - 2.0) <= 1e-12

    def test_pinned_coefficients(self, ball2):
        a = ball2.coefficient_matrix(np.array([0.5, 0.0]))
        b = ball2.coefficient_oneform(np.array([0.5, 0.0]))
        assert a[0, 0] == pytest.approx(16.0 / 9.0, abs=1e-13)
        assert b[0] == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_matches_ball_closed_form(self, ball2, rng):
        worst = 0.0
        for _ in range(300):
            x = ball2.random_interior_point(rng)
            y = rng.normal(size=2)
            worst = max(worst, abs(ball2.norm(x, y) - ball_closed_form(x, y)))
        assert worst <= 1e-10

    def test_oneform_is_half_log_gradient(self, rng):
        # b_j = -d_j log(phi) / 2, checked with plain central differences
        for _ in range(5):
            A = rng.normal(size=(2, 2))
            spec = QuadraticDomainSpec(alpha=-(A @ A.T + 0.4 * np.eye(2)),
                                       beta=0.1 * rng.normal(size=2),
                                       gamma=1.0 + float(abs(rng.normal())))
            metric = funk_from_quadratic(spec)
            x = metric.random_interior_point(rng)
            b = metric.coefficient_oneform(x)
            h = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                grad = (math.log(spec.phi(x + e)) - math.log(spec.phi(x - e))) / (2 * h)
                assert b[j] == pytest.approx(-0.5 * grad, abs=1e-8)

    def test_construction_errors(self):
        with pytest.raises(ConstructionError):
            QuadraticDomainSpec(alpha=-np.eye(2), beta=np.zeros(2), gamma=-1.0)
        with pytest.raises(ConstructionError):
            QuadraticDomainSpec(alpha=-np.eye(2), beta=np.zeros(2), gamma=1.0, k=0.0)
        with pytest.raises(ConstructionError):
            QuadraticDomainSpec(alpha=np.array([[1.0, 0.5], [0.0, 1.0]]),
                                beta=np.zeros(2), gamma=1.0)

    def test_nonconvex_domain_warns(self):
        with pytest.warns(UserWarning):
            QuadraticDomainSpec(alpha=np.eye(2), beta=np.zeros(2), gamma=1.0)

    def test_domain_rejection(self, ball2):
        with pytest.raises(DomainError):
            ball2.norm([1.1, 0.0], [1.0, 0.0])


class TestIntervalFunk:
    @pytest.mark.parametrize("u,y,expected", [
        (0.0, 1.0, 1.0),
        (0.5, 1.0, 2.0),
        (0.5, -1.0, 2.0 / 3.0),
    ])
    def test_pinned_values(self, u, y, expected):
        assert interval_funk_eval(u, y, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_branch_forms(self, rng):
        for _ in range(100):
            u = float(rng.uniform(-0.99, 0.99))
            y = float(rng.normal())
            if y == 0:
                continue
            k = float(rng.uniform(0.5, 2.0))
            expected = y / (k * (1 - u)) if y > 0 else -y / (k * (1 + u))
            assert interval_funk_eval(u, y, k) == pytest.approx(expected, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            interval_funk_eval(1.0, 1.0)
        with pytest.raises(DomainError):
            interval_funk_eval(0.0, 0.0)
        with pytest.raises(ConstructionError):
            interval_funk_eval(0.0, 1.0, k=0.0)
        with pytest.raises(ConstructionError):
            interval_funk_eval(0.0, 1.0, k=-2.0)

    @pytest.mark.parametrize("k", [math.inf, math.nan, 1e300, 1e-200])
    def test_funk_constant_needs_a_finite_nonzero_square(self, k):
        # k = inf divided norms to 0, k = 1e300 overflowed k ** 2
        for build in (lambda: interval_funk_eval(0.0, 1.0, k),
                      lambda: QuadraticDomainSpec(alpha=-np.eye(2), beta=np.zeros(2),
                                                  gamma=1.0, k=k)):
            with pytest.raises(ConstructionError):
                build()

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_arc_length_matches_closed_distance(self, k, rng):
        # the Funk length of the straight path from a to b, by adaptive quadrature;
        # non-convergence warns, which is an error under the test settings
        for _ in range(7):
            a, b = rng.uniform(-0.9, 0.9, 2)
            d = b - a
            if d == 0:
                continue
            L, _ = integrate.quad(lambda t: interval_funk_eval(a + t * d, d, k), 0.0, 1.0,
                                  epsabs=1e-12, epsrel=1e-10, limit=200)
            assert L == pytest.approx(funk_distance_interval(a, b, k), abs=1e-9)


class TestKlein:
    def test_origin_is_euclidean(self, klein2, rng):
        y = rng.normal(size=2)
        assert klein2.norm([0.0, 0.0], y) == pytest.approx(np.linalg.norm(y))

    def test_domain_error(self, klein2):
        with pytest.raises(DomainError):
            klein2.norm([1.0, 0.2], [1.0, 0.0])
        with pytest.raises(DomainError, match="nonzero"):
            klein2.norm([0.1, 0.2], [0.0, -0.0])
        for y in ([np.nan, 1.0], [-np.inf, 0.0]):
            with pytest.raises(DomainError, match="non-finite"):
                klein2.norm([0.1, 0.2], y)

    def test_dimension_guard(self):
        with pytest.raises(ConstructionError):
            klein_metric(1)

    def test_analytic_tensor_matches_norm(self, klein2, rng):
        for _ in range(20):
            x = klein2.random_interior_point(rng)
            y = rng.normal(size=2)
            g = klein2.metric_tensor(x, y)
            assert klein2.norm(x, y) ** 2 == pytest.approx(float(y @ g @ y), rel=1e-12)


class TestRanders:
    def test_pinned_values(self, randers_const):
        assert randers_const.norm([0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.5)
        assert randers_const.norm([0.0, 0.0], [-1.0, 0.0]) == pytest.approx(0.5)

    def test_asymmetry(self, randers_const, rng):
        y = rng.normal(size=2)
        assert (randers_const.norm([0.1, 0.1], y)
                != pytest.approx(randers_const.norm([0.1, 0.1], -y)))

    def test_zero_one_form_reduces_to_riemannian(self, rng):
        metric = randers_metric(RandersSpec(2, np.diag([2.0, 0.5]), np.zeros(2)))
        y = rng.normal(size=2)
        assert metric.norm([0.0, 0.0], y) == pytest.approx(
            math.sqrt(2.0 * y[0] ** 2 + 0.5 * y[1] ** 2))

    def test_oversized_one_form_rejected(self):
        with pytest.raises(ConstructionError, match="1.5"):
            randers_metric(RandersSpec(2, np.eye(2), np.array([1.5, 0.0])))

    def test_constant_a_not_positive_definite_names_no_point(self):
        with pytest.raises(ConstructionError) as info:
            randers_metric(RandersSpec(2, -np.eye(2), np.zeros(2)))
        assert str(info.value) == ("randers: a is not a finite symmetric "
                                   "positive-definite matrix")

    def test_field_a_not_positive_definite_names_its_point(self):
        with pytest.raises(ConstructionError, match=r"positive-definite matrix at x=\["):
            randers_metric(RandersSpec(2, lambda x: -np.eye(2), lambda x: np.zeros(2)))

    def test_constant_a_with_a_one_form_field(self):
        # the constant a is read as an array, not called as a provider
        metric = randers_metric(RandersSpec(2, np.eye(2), lambda x: 0.2 * np.array([-x[1], x[0]])))
        assert not metric.closed_form
        assert metric.norm([0.1, 0.2], [1.0, 0.0]) == pytest.approx(0.96, abs=1e-15)

    def test_position_dependent_one_form(self):
        spec = RandersSpec(
            2, lambda x: np.eye(2), lambda x: 0.2 * np.array([-x[1], x[0]]),
            name="curl-randers")
        metric = randers_metric(spec)
        assert metric.norm([0.5, 0.0], [0.0, 1.0]) == pytest.approx(1.1)


def shipped_metrics():
    """One instance of every shipped FinslerMetric class, with a point just
    outside its domain (None when the domain is all of R^n)."""
    def g(x):
        return np.eye(2) * (1.0 + 0.1 * (x @ x))

    return {
        "euclidean": (EuclideanMetric(2), None),
        "klein": (klein_metric(3), [0.6, 0.6, 0.6]),
        "funk-ball": (funk_ball(2), [0.8, 0.7]),
        "funk-ellipsoid": (funk_from_quadratic(QuadraticDomainSpec(
            alpha=np.array([[-1.5, 0.3], [0.3, -0.8]]), beta=np.array([0.1, -0.05]),
            gamma=1.0, k=1.3)), [2.0, 0.0]),
        "riemannian": (RiemannianMetric(RiemannianSpec(
            2, g, domain_provider=lambda x: 1.0 - float(x @ x))), [1.0, 0.1]),
        "randers-constant": (randers_metric(RandersSpec(2, np.eye(2), np.array([0.5, 0.0]))),
                             None),
        "randers-varying": (randers_metric(RandersSpec(
            2, g, lambda x: 0.2 * np.array([-x[1], x[0]]))), None),
    }


class TestNormBatch:
    @pytest.mark.parametrize("name", sorted(shipped_metrics()))
    def test_equals_norm_loop(self, name):
        metric, _ = shipped_metrics()[name]
        elements = metric.random_line_elements(40, np.random.default_rng(8))
        X = np.array([x for x, _ in elements])
        Y = np.array([y for _, y in elements])
        batch = metric.norm_batch(X, Y)
        assert batch.shape == (40,)
        assert [v.hex() for v in batch.tolist()] == \
            [metric.norm(x, y).hex() for x, y in elements]
        assert metric.norm_batch(X[:0], Y[:0]).shape == (0,)

    @pytest.mark.parametrize("name", sorted(shipped_metrics()))
    def test_invalid_element_raises_like_the_loop(self, name):
        metric, outside = shipped_metrics()[name]
        n = metric.dimension
        X = np.full((3, n), 0.1)
        Y = np.ones((3, n))
        bad = [(1, None, np.zeros(n)), (2, None, np.full(n, np.nan))]
        if outside is not None:
            bad.append((2, outside, None))
        for k, x, y in bad:
            Xb, Yb = X.copy(), Y.copy()
            if x is not None:
                Xb[k] = x
            if y is not None:
                Yb[k] = y
            with pytest.raises(DomainError) as loop:
                [metric.norm(xx, yy) for xx, yy in zip(Xb, Yb)]
            with pytest.raises(DomainError) as batch:
                metric.norm_batch(Xb, Yb)
            assert str(batch.value) == str(loop.value)

    @pytest.mark.parametrize("count", [2, 40])
    def test_jet_safe_provider_gets_floats(self, count):
        # providers are written for x as floats: on (N,) columns
        # np.eye(2) * scalar would broadcast wrongly or fail
        metric = randers_metric(RandersSpec(
            2, lambda x: np.eye(2) * (1.0 + 0.1 * (x[0] * x[0] + x[1] * x[1])),
            lambda x: np.array([0.1 * x[1], -0.1 * x[0]])))
        elements = metric.random_line_elements(count, np.random.default_rng(5))
        X = np.array([x for x, _ in elements])
        Y = np.array([y for _, y in elements])
        assert [v.hex() for v in metric.norm_batch(X, Y).tolist()] == \
            [metric.norm(x, y).hex() for x, y in elements]

    def test_stack_checks_agree_with_the_row_checks(self):
        # rows on the boundary or an ulp from it, non-finite, zero, huge and
        # tiny: the stack's mask and first error are the rows' own, and no
        # RuntimeWarning escapes (warnings are errors in this suite)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        metrics = closed_form_metrics()
        special = st.sampled_from([0.0, -0.0, 1e-300, 1e200, -1e200, math.inf, -math.inf,
                                   math.nan])

        @st.composite
        def element(draw, metric):
            n = metric.dimension
            entries = st.lists(special | st.floats(-2.0, 2.0), min_size=n, max_size=n)
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            x = boundary_point(metric, rng.normal(size=n))
            kind = draw(st.sampled_from(["inside", "boundary", "entries"]))
            if kind == "inside" or (kind == "boundary" and x is None):
                x = metric.random_interior_point(rng)
            elif kind == "boundary":
                x = x + draw(st.sampled_from([-1, 0, 1])) * np.spacing(x)
            else:
                x = np.array(draw(entries))
            return x, np.array(draw(entries))

        def outcome(run):
            try:
                return run()
            except FinslerError as exc:
                return type(exc).__name__, str(exc)

        @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                             database=None)
        @hypothesis.given(st.sampled_from(sorted(metrics)).flatmap(
            lambda name: st.tuples(st.just(name), st.lists(element(metrics[name]), max_size=5))))
        def check(case):
            name, elements = case
            metric = metrics[name]
            X = np.array([x for x, _ in elements]).reshape(-1, metric.dimension)
            Y = np.array([y for _, y in elements]).reshape(X.shape)
            rows = [outcome(lambda: metric.check_line_element(x, y) and None)
                    for x, y in elements]
            assert metric.valid_line_elements(X, Y).tolist() == [r is None for r in rows]
            batch = outcome(lambda: [v.hex() for v in metric.norm_batch(X, Y).tolist()])
            first = next((r for r in rows if r is not None), None)
            if first is None:  # every row valid: the values, or the first row's F error
                first = outcome(lambda: [metric.norm(x, y).hex() for x, y in elements])
            assert batch == first

        check()

    @pytest.mark.parametrize("X, Y", [
        (np.zeros((2, 2)), np.ones((3, 2))),
        (np.zeros(2), np.ones(2)),
    ])
    def test_malformed_stacks_rejected(self, klein2, X, Y):
        with pytest.raises(DomainError):
            klein2.norm_batch(X, Y)


class TestPlacementDeterminism:
    """`norm` and `norm_batch` of a black-box tensor give the same bits for
    byte-identical x and y wherever the operands sit in memory."""

    def test_blackbox_klein_n5(self):
        def g(x):
            phi = 1.0 - float(x @ x)
            return np.eye(len(x)) / phi + np.outer(x, x) / phi ** 2

        metric = RiemannianMetric(RiemannianSpec(
            5, g, domain_provider=lambda x: 1.0 - float(x @ x), name="klein-blackbox"))
        elements = metric.random_line_elements(30, np.random.default_rng(48))
        X = np.array([x for x, _ in elements])
        Y = np.array([y for _, y in elements])
        reference = [metric.norm(x, y).hex() for x, y in elements]
        for offset in range(8):  # in float64 steps, so every 8- to 64-byte alignment
            buffer = np.zeros(2 * X.size + offset + 1)
            Xo = buffer[offset:offset + X.size].reshape(X.shape)
            Yo = buffer[offset + X.size:offset + 2 * X.size].reshape(Y.shape)
            Xo[...], Yo[...] = X, Y
            assert [metric.norm(x, y).hex() for x, y in zip(Xo, Yo)] == reference
            assert [v.hex() for v in metric.norm_batch(Xo, Yo).tolist()] == reference
            backward = metric.norm_batch(Xo[::-1], Yo[::-1])[::-1]
            assert [v.hex() for v in backward.tolist()] == reference


class TestShippedAxioms:
    def test_homogeneity_and_convexity(self, eucl2, klein2, ball2, randers_const, rng):
        for metric in (eucl2, klein2, ball2, randers_const):
            samples = [(x, y, float(rng.uniform(0.1, 10.0)))
                       for x, y in metric.random_line_elements(100, rng)]
            assert validate_homogeneity(metric, samples, tolerance=1e-10).passed
            assert validate_strong_convexity(
                metric, metric.random_line_elements(40, rng)).passed


def off_centre_ellipse():
    """Funk metric of the ellipse with semi-axes 0.6, 1.4 centred at (0.1, -0.05):
    phi = 1 - (x - c) D (x - c) with D = diag(1/0.6^2, 1/1.4^2)."""
    D = np.diag([1.0 / 0.36, 1.0 / 1.96])
    c = np.array([0.1, -0.05])
    return funk_from_quadratic(QuadraticDomainSpec(alpha=-D, beta=D @ c,
                                                   gamma=1.0 - float(c @ D @ c)))


def closed_form_metrics():
    return {
        "klein2": klein_metric(2),
        "klein3": klein_metric(3),
        "funk-ball2": funk_ball(2),
        "funk-ball3": funk_ball(3),
        "funk-ellipse": off_centre_ellipse(),
        "euclidean": EuclideanMetric(3),
        "randers-constant": randers_metric(RandersSpec(
            2, np.array([[1.2, 0.3], [0.3, 0.8]]), np.array([0.25, -0.3]))),
    }


def anisotropic_ellipsoid():
    """Funk metric of a rotated ellipsoid with semi-axes 0.5, 1 and 1.7 centred
    at (0.1, -0.2, 0.05), with k = 1.3."""
    R = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))[0]
    D = R @ np.diag([4.0, 1.0, 1.0 / 2.89]) @ R.T
    D = 0.5 * (D + D.T)
    c = np.array([0.1, -0.2, 0.05])
    return funk_from_quadratic(QuadraticDomainSpec(alpha=-D, beta=D @ c,
                                                   gamma=1.0 - float(c @ D @ c), k=1.3))


def _dot(u, v):
    acc = u[0] * v[0]
    for i in range(1, len(u)):
        acc = acc + u[i] * v[i]
    return acc


def dot_formula_theta(alpha, beta, gamma, x, y):
    """_funk_theta written with separate left-to-right sums: alpha x and alpha y
    row by row, then each scalar product on its own."""
    ax = [_dot(row, x) for row in alpha]
    p = _dot(x, ax) + 2.0 * _dot(beta, x) + gamma
    wy = _dot([wi + bi for wi, bi in zip(ax, beta)], y)
    ayy = _dot(y, [_dot(row, y) for row in alpha])
    root = smooth_sqrt(wy * wy - ayy * p)
    if isinstance(jet_value(wy), np.ndarray):
        return jet_where(jet_value(wy) >= 0.0, -ayy / (root + wy), (root - wy) / p)
    return -ayy / (root + wy) if jet_value(wy) >= 0.0 else (root - wy) / p


def dot_formula_klein_spray(x, y):
    phi = 1.0 - _dot(x, x)
    if isinstance(phi, float) and phi <= 0.0:
        return [math.nan] * len(y)
    p = 2.0 * _dot(x, y) / phi
    return [p * yi for yi in y]


def argument_forms(metric, count, seed):
    """Seeded line elements in every form a closed form takes: each as Python
    floats, all as (N,) columns, and as Dual2 variables (y first, then x, as
    the curvature jets order them) over the first element's floats and over
    the columns."""
    elements = metric.random_line_elements(count, np.random.default_rng(seed))
    X = np.array([x for x, _ in elements])
    Y = np.array([y for _, y in elements])
    n = metric.dimension
    forms = [(x.tolist(), y.tolist()) for x, y in elements] + [(list(X.T), list(Y.T))]
    for values in (Y[0].tolist() + X[0].tolist(), list(Y.T) + list(X.T)):
        z = Dual2.variables(values, n)
        forms.append((z[n:], z[:n]))
    return forms


def bits(v):
    """The hex of every float in v: a number, an array, a list, or a Dual2's
    value, gradient and Hessian rows."""
    if isinstance(v, list):
        return [bits(u) for u in v]
    if isinstance(v, Dual2):
        return [bits(v.val), bits(v.grad), bits(v.hess)]
    return [float(u).hex() for u in np.ravel(v)]


def boundary_point(metric, u):
    """The rounded boundary point along u from the domain's centre, or None
    where the domain is all of R^n."""
    n = len(u)
    if isinstance(metric, QuadraticFunkMetric):
        alpha, c = metric.spec.alpha, metric.spec.center()
        phi_c = metric.spec.phi(c)
    elif isinstance(metric, KleinMetric):
        alpha, c, phi_c = -np.eye(n), np.zeros(n), 1.0
    else:
        return None
    return c + math.sqrt(-phi_c / float(u @ alpha @ u)) * u


class TestFloatClosedForms:
    """The shipped closed forms run on Python floats; their values must be
    those of the same arithmetic on numpy arrays, bit for bit."""

    @pytest.mark.parametrize("name", ["funk-ball2", "funk-ball3", "funk-ellipse",
                                      "funk-anisotropic3"])
    def test_fused_funk_theta_keeps_the_separate_sums_bits(self, name):
        metric = {**closed_form_metrics(), "funk-anisotropic3": anisotropic_ellipsoid()}[name]
        args = metric._alpha, metric._beta, metric.spec.gamma
        for x, y in argument_forms(metric, 60, 33):
            assert bits(_funk_theta(*args, x, y)) == bits(dot_formula_theta(*args, x, y))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fused_klein_spray_keeps_the_separate_sums_bits(self, n):
        metric = klein_metric(n)
        on_sphere = ([1.0] + [0.0] * (n - 1), [0.5] * n)
        for x, y in argument_forms(metric, 60, 34) + [on_sphere]:
            assert bits(metric._spray_impl(x, y)) == bits(dot_formula_klein_spray(x, y))

    @pytest.mark.parametrize("name", ["klein2", "klein3", "klein5", "funk-ball3", "funk-ellipse",
                                      "funk-anisotropic3"])
    def test_stacked_domain_value_keeps_each_rows_bits(self, name):
        metric = {**closed_form_metrics(), "klein5": klein_metric(5),
                  "funk-anisotropic3": anisotropic_ellipsoid()}[name]
        rng = np.random.default_rng(35)
        n = metric.dimension
        inside = [metric.random_interior_point(rng) for _ in range(100)]
        edge = [boundary_point(metric, rng.normal(size=n)) for _ in range(100)]
        # each coordinate moved by up to three ulps, so both signs of phi show
        edge = [x + rng.integers(-3, 4, size=n) * np.spacing(x) for x in edge]
        X = np.array(inside + edge)
        stacked = metric.domain_value(X)
        assert [v.hex() for v in stacked.tolist()] == [metric.domain_value(x).hex() for x in X]
        assert (stacked[100:] > 0.0).any() and (stacked[100:] <= 0.0).any()
        assert metric.domain_value(X[:0]).shape == (0,)

    @pytest.mark.parametrize("name", sorted(closed_form_metrics()))
    def test_norm_equals_the_array_route(self, name):
        metric = closed_form_metrics()[name]
        for x, y in metric.random_line_elements(200, np.random.default_rng(31)):
            assert metric.norm(x, y).hex() == float(metric._norm_impl(x, y)).hex()

    @pytest.mark.parametrize("name", ["funk-ball2", "funk-ball3", "funk-ellipse"])
    def test_funk_spray_equals_the_array_route(self, name):
        metric = closed_form_metrics()[name]
        spec = metric.spec
        for x, y in metric.random_line_elements(200, np.random.default_rng(32)):
            expected = _funk_theta(spec.alpha, spec.beta, spec.gamma, x, y) * y
            assert [v.hex() for v in metric.spray_vector(x, y).tolist()] == \
                [v.hex() for v in expected.tolist()]

    @pytest.mark.parametrize("y", [[1.0, 0.0], [0.0, 1.0]])  # wy < 0, wy = 0
    def test_funk_spray_on_the_sphere_is_nan(self, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = funk_ball(2).spray_vector([1.0, 0.0], y)
        assert g.shape == (2,) and np.all(np.isnan(g))

    @pytest.mark.parametrize("cls, make", [
        (KleinMetric, lambda cls: cls(2)),
        (QuadraticFunkMetric, lambda cls: cls(funk_ball(2).spec)),
    ])
    def test_closed_form_phi_of_zero_is_a_domain_error(self, cls, make):
        # a domain test that lets the sphere through leaves the closed form's
        # own phi at exactly 0
        loose = type("Loose", (cls,), {"domain_value": lambda self, x: 1.0})
        with pytest.raises(DomainError, match="boundary"):
            make(loose).norm([1.0, 0.0], [1.0, 0.0])

    def test_zero_division_names_both_causes(self):
        # at the centre the Funk ball's phi is 1, but F(0, y) divides 0 by 0
        # once y y underflows
        with pytest.raises(DomainError, match=r"boundary, or y=\[1e-300, 0.0\] is too small"):
            funk_ball(2).norm([0.0, 0.0], [1e-300, 0.0])
