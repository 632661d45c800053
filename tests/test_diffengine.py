"""Jet arithmetic, second-order forward mode, the stencil, and the y-Hessian."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from finslerproj.core import FinslerMetric, validate_strong_convexity
from finslerproj.diffengine import (Dual2, Jet, fundamental_tensor, gradient_combine,
                                    gradient_points, hessian_combine, hessian_points,
                                    jet_where)
from finslerproj.errors import AccuracyError, ConstructionError
from finslerproj.metrics import EuclideanMetric, funk_ball, klein_metric

# d(F^2)/dx1 of the unit-ball Funk metric at x=(1/2,0), y=(1,0); computed
# once symbolically from the closed form and frozen
FUNK_BALL_DF2_DX1 = 16.0


class TestJet:
    def test_variable_encodes_first_derivative(self):
        t = Jet.variable(2.0, 3)
        p = t * t * t - 2.0 * t + 1.0
        assert p.coef[0] == pytest.approx(5.0)
        assert p.derivative(1) == pytest.approx(10.0)   # 3t^2 - 2
        assert p.derivative(2) == pytest.approx(12.0)   # 6t
        assert p.derivative(3) == pytest.approx(6.0)

    def test_misuse_raises_construction_error(self):
        with pytest.raises(ConstructionError, match="order"):
            Jet.variable(1.0, 0)
        u, _ = Dual2.variables([1.5, 2.0], 2)
        with pytest.raises(ConstructionError, match="integer powers"):
            u ** 0.5

    def test_division_and_reciprocal(self):
        t = Jet.variable(0.5, 3)
        r = 1.0 / (1.0 - t)
        # 1/(1-t): derivatives n!/(1-t)^(n+1)
        assert r.coef[0] == pytest.approx(2.0)
        assert r.derivative(1) == pytest.approx(4.0)
        assert r.derivative(2) == pytest.approx(16.0)

    @pytest.mark.parametrize("fn,d1,d2", [
        ("sqrt", lambda t: 0.5 / math.sqrt(t), lambda t: -0.25 * t ** -1.5),
        ("exp", math.exp, math.exp),
        ("log", lambda t: 1 / t, lambda t: -1 / t ** 2),
        ("sin", math.cos, lambda t: -math.sin(t)),
        ("cos", lambda t: -math.sin(t), lambda t: -math.cos(t)),
        ("sinh", math.cosh, math.sinh),
        ("cosh", math.sinh, math.cosh),
    ])
    def test_elementary_functions(self, fn, d1, d2):
        t0 = 0.7
        jet = getattr(Jet.variable(t0, 2), fn)()
        assert jet.derivative(1) == pytest.approx(d1(t0), abs=1e-13)
        assert jet.derivative(2) == pytest.approx(d2(t0), abs=1e-13)

    def test_tan_tanh(self):
        t = Jet.variable(0.4, 1)
        assert t.tan().derivative(1) == pytest.approx(1.0 / math.cos(0.4) ** 2)
        assert t.tanh().derivative(1) == pytest.approx(1.0 - math.tanh(0.4) ** 2)

    def test_nested_levels_mixed_partial(self):
        # f(u, v) = u^2 v^3: f_uv = 6 u v^2, f_uu = 2 v^3, f_vv = 6 u^2 v, all
        # from one second-order pass
        u, v = Dual2.variables([1.5, 2.0], 2)
        f = u * u * (v * v * v)
        assert f.val == pytest.approx(1.5 ** 2 * 8.0)
        assert f.grad.tolist() == pytest.approx([2 * 1.5 * 8.0, 3 * 1.5 ** 2 * 4.0])
        assert np.allclose(f.hess, [[16.0, 6 * 1.5 * 4.0], [6 * 1.5 * 4.0, 6 * 1.5 ** 2 * 2.0]],
                           rtol=1e-14, atol=0.0)

    def test_pow(self):
        t = Jet.variable(2.0, 2)
        assert (t ** 3).derivative(1) == pytest.approx(12.0)
        assert (t ** -1).derivative(1) == pytest.approx(-0.25)
        assert (t ** 0.5).derivative(1) == pytest.approx(0.5 / math.sqrt(2.0))


def exact_partial(terms, orders, point):
    """The partial derivative of orders `orders` of the polynomial
    sum c prod z^e, differentiated term by term."""
    total = 0.0
    for c, ex in terms:
        coef = c
        for e, o in zip(ex, orders):
            if o > e:
                coef = 0.0
                break
            for j in range(o):
                coef *= (e - j)
        if coef:
            total += coef * np.prod([p ** (e - o) for p, e, o in zip(point, ex, orders)])
    return total


class NumpyNorm(FinslerMetric):
    """sqrt(y A y) through numpy and float(), with no route flag and no
    tensor provider set: the engine must treat it as a black box."""

    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    dimension = 2

    def _norm_impl(self, x, y):
        return math.sqrt(float(np.dot(y, np.dot(self.A, y))))


def stripped(metric, closed_form):
    """The norm of `metric` without its analytic fundamental tensor, so
    fundamental_tensor has to differentiate it."""
    return SimpleNamespace(
        dimension=metric.dimension, closed_form=closed_form,
        check_line_element=metric.check_line_element,
        metric_tensor=lambda x, y: None,
        _norm_impl=metric._norm_impl, norm=metric.norm)


class TestNestedJets:
    """Mixed partials up to total order 2 from one Dual2 pass, the derivatives
    the curvature formula reads (y's first, Hessian rows of the y's only),
    against exact differentiation of random polynomials."""

    def test_random_polynomials(self, rng):
        for _ in range(60):
            terms = []
            for _ in range(rng.integers(2, 6)):
                ex = rng.integers(0, 4, size=4)
                while ex.sum() > 6:
                    ex = rng.integers(0, 4, size=4)
                terms.append((float(rng.uniform(-2, 2)), ex))

            def field(x, y, terms=terms):
                acc = 0.0
                for c, ex in terms:
                    acc = acc + (c * x[0] ** int(ex[0]) * x[1] ** int(ex[1])
                                 * y[0] ** int(ex[2]) * y[1] ** int(ex[3]))
                return acc

            # a batch of 5 points: variables y0, y1, x0, x1, Hessian rows of y0, y1
            Z = rng.uniform(0.2, 1.2, (4, 5))
            z = Dual2.variables(list(Z), 2)
            f = field(z[2:], z[:2])
            order = [2, 3, 0, 1]  # the polynomial's exponents are (x0, x1, y0, y1)
            for k in range(5):
                point = Z[order, k]

                def exact(*active):
                    orders = [0] * 4
                    for a in active:
                        orders[order[a]] += 1
                    return exact_partial(terms, orders, point)

                scale = max(1.0, abs(exact()))
                assert abs(f.val[k] - exact()) <= 1e-12 * scale
                for a in range(4):
                    assert abs(f.grad[a, k] - exact(a)) <= 1e-12 * max(1.0, abs(exact(a)))
                    for r in range(2):
                        want = exact(r, a)
                        assert abs(f.hess[r, a, k] - want) <= 1e-12 * max(1.0, abs(want))

    def test_mixed_partial_of_monomial(self):
        # x1 y2^3 at y2 = 1/2: d/dx1 d/dy2 is 3 y2^2, d^2/dy2^2 is 6 x1 y2
        y1, y2, x1, x2 = Dual2.variables([0.3, 0.5, 0.7, -0.2], 2)
        f = x1 * y2 ** 3
        assert f.hess[1].tolist() == pytest.approx([0.0, 6 * 0.7 * 0.5, 0.75, 0.0], abs=1e-15)
        assert f.hess[0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_funk_ball_golden_x_derivative(self, ball2):
        y1, y2, x1, x2 = Dual2.variables([1.0, 0.0, 0.5, 0.0], 2)
        f = ball2._norm_impl([x1, x2], [y1, y2])
        assert (f * f).grad[2] == pytest.approx(FUNK_BALL_DF2_DX1, abs=1e-10)

    def test_quotient_reciprocal_sqrt_and_powers(self):
        # g(u, v) = sqrt(u) / v + v^-2 - 1 / u against its closed-form derivatives
        u0, v0 = 0.8, 1.7
        u, v = Dual2.variables([u0, v0], 2)
        g = u.sqrt() / v + v ** -2 - 1.0 / u
        assert g.val == pytest.approx(math.sqrt(u0) / v0 + v0 ** -2 - 1 / u0)
        assert g.grad.tolist() == pytest.approx(
            [0.5 / (math.sqrt(u0) * v0) + u0 ** -2, -math.sqrt(u0) / v0 ** 2 - 2 * v0 ** -3])
        assert np.allclose(g.hess, [
            [-0.25 * u0 ** -1.5 / v0 - 2 * u0 ** -3, -0.5 / (math.sqrt(u0) * v0 ** 2)],
            [-0.5 / (math.sqrt(u0) * v0 ** 2), 2 * math.sqrt(u0) / v0 ** 3 + 6 * v0 ** -4]],
            rtol=1e-14, atol=0.0)

    def test_where_selects_value_and_derivatives(self):
        u, v = Dual2.variables([np.array([1.0, 2.0]), np.array([3.0, 4.0])], 1)
        w = jet_where(np.array([True, False]), u * v, 2.0)
        assert w.val.tolist() == [3.0, 2.0]
        assert w.grad.tolist() == [[3.0, 0.0], [1.0, 0.0]]
        assert w.hess.tolist() == [[[0.0, 0.0], [1.0, 0.0]]]


def gradient(field, v, h):
    """(n, ...) derivatives of field at the point v by the gradient pair."""
    h = np.array([h])
    values = np.array([field(p) for p in gradient_points(np.asarray(v)[None], h)])
    return np.moveaxis(gradient_combine(values, h)[0], -1, 0)


class TestGradientStencil:
    def test_exact_on_quartic_vector_field(self):
        # the 5-point stencil's error term is h^4 f^(5), so it is exact up to
        # degree 4 whatever the step
        def field(v):
            return np.array([v[0] ** 4 - 2.0 * v[0] ** 3 * v[1] + v[1] ** 2,
                             3.0 * v[0] * v[1] ** 3 - v[0] ** 2])

        def jacobian(v):
            return np.array([[4.0 * v[0] ** 3 - 6.0 * v[0] ** 2 * v[1],
                              -2.0 * v[0] ** 3 + 2.0 * v[1]],
                             [3.0 * v[1] ** 3 - 2.0 * v[0],
                              9.0 * v[0] * v[1] ** 2]])

        v = np.array([0.7, -0.4])
        for h in (1e-2, 1e-3):
            assert np.abs(gradient(field, v, h) - jacobian(v).T).max() < 1e-12

    def test_scalar_field(self):
        d = gradient(lambda v: float(v[0] ** 4 * v[1]), np.array([0.5, 2.0]), 1e-2)[0]
        assert abs(float(d) - 4.0 * 0.5 ** 3 * 2.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacks_exact_on_random_quartics(self, n):
        # every row with its own step; a quartic in n variables as the sum of
        # random coefficients times monomials of degree <= 4
        rng = np.random.default_rng(n)
        powers = [p for p in itertools.product(range(5), repeat=n) if sum(p) <= 4]
        coef = rng.normal(size=len(powers))

        def quartic(V):
            return sum(c * np.prod(V ** np.array(p), axis=-1) for c, p in zip(coef, powers))

        def grad(V):
            out = np.zeros(V.shape)
            for c, p in zip(coef, powers):
                for i in range(n):
                    if p[i]:
                        q = np.array(p)
                        q[i] -= 1
                        out[:, i] += c * p[i] * np.prod(V ** q, axis=-1)
            return out

        for P in range(1, 6):
            V = rng.uniform(-1.0, 1.0, (P, n))
            h = rng.uniform(1e-3, 1e-1, P)
            points = gradient_points(V, h)
            assert points.shape == (4 * n * P, n)
            D = gradient_combine(quartic(points), h)
            assert D.shape == (P, n) and D.flags.c_contiguous
            assert np.abs(D - grad(V)).max() <= 1e-10 * max(1.0, np.abs(grad(V)).max())
            # array-valued fields keep their value axes ahead of the derivative axis
            T = gradient_combine(np.stack([quartic(points), 2.0 * quartic(points)], -1), h)
            assert T.shape == (P, 2, n) and T.flags.c_contiguous
            assert np.array_equal(T[:, 1], 2.0 * T[:, 0])

    def test_layout_is_offset_major(self):
        V, h = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), np.array([0.5, 0.25, 0.125])
        points = gradient_points(V, h).reshape(2, 4, 3, 2)  # axis, offset, row, coordinate
        for i in range(2):
            for k, o in enumerate((-2.0, -1.0, 1.0, 2.0)):
                expected = V.copy()
                expected[:, i] += o * h
                assert np.array_equal(points[i, k], expected)


class TestFundamentalTensor:
    def test_euclidean_identity(self, eucl2):
        g = fundamental_tensor(eucl2, [0.3, 0.1], [1.0, 2.0])
        assert np.allclose(g, np.eye(2))

    def test_klein_origin_identity(self, klein2):
        g = fundamental_tensor(klein2, [0.0, 0.0], [0.7, -0.2])
        assert np.allclose(g, np.eye(2), atol=1e-12)

    def test_symmetric_and_zero_homogeneous(self, ball2, rng):
        for _ in range(25):
            x = ball2.random_interior_point(rng)
            y = rng.normal(size=2)
            g1 = fundamental_tensor(ball2, x, y)
            assert np.array_equal(g1, g1.T)
            lam = rng.uniform(0.5, 2.0)
            g2 = fundamental_tensor(ball2, x, lam * y)
            assert np.abs(g2 - g1).max() < 1e-8

    def test_numeric_matches_analytic_provider(self, ball2):
        # jet route on the raw norm against the closed-form tensor
        x = np.array([0.3, -0.2])
        y = np.array([0.8, 0.5])
        analytic = fundamental_tensor(ball2, x, y)
        numeric = fundamental_tensor(stripped(ball2, closed_form=True), x, y)
        assert np.abs(numeric - analytic).max() < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_jet_route_is_one_norm_pass(self, n):
        ball = funk_ball(n)
        calls = []

        def counting(x, y):
            calls.append(len(y))
            return ball._norm_impl(x, y)

        metric = stripped(ball, closed_form=True)
        metric._norm_impl = counting
        x, y = ball.random_line_elements(1, np.random.default_rng(5))[0]
        g = fundamental_tensor(metric, x, y)
        assert calls == [n]
        assert np.abs(g - fundamental_tensor(ball, x, y)).max() < 1e-12

    @pytest.mark.parametrize("make", [lambda: funk_ball(2), lambda: funk_ball(3),
                                      lambda: klein_metric(3), lambda: EuclideanMetric(2)],
                             ids=["funk-ball-2", "funk-ball-3", "klein-3", "euclidean-2"])
    def test_stencil_route_matches_analytic(self, make, rng):
        # the y-Hessian stencil on a black-box norm, within the
        # finite-difference tolerance
        metric = make()
        black_box = stripped(metric, closed_form=False)
        for x, y in metric.random_line_elements(10, rng):
            analytic = fundamental_tensor(metric, x, y)
            numeric = fundamental_tensor(black_box, x, y)
            scale = max(1.0, float(np.abs(analytic).max()))
            assert np.abs(numeric - analytic).max() / scale < 1e-9

    def test_flagless_subclass_takes_the_stencil(self, rng):
        metric = NumpyNorm()
        for x, y in metric.random_line_elements(5, rng):
            assert np.abs(fundamental_tensor(metric, x, y) - NumpyNorm.A).max() < 1e-9
        report = validate_strong_convexity(metric, metric.random_line_elements(5, rng))
        assert report.passed
        assert report.checks[0].residual == pytest.approx(-np.linalg.eigvalsh(NumpyNorm.A)[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hessian_stencil_exact_on_quintics(self, n, rng):
        # the O(h^4) stencil's error terms are sixth derivatives, which
        # vanish on polynomials of total degree <= 5
        terms = [(float(rng.normal()), rng.multinomial(d, np.ones(n) / n))
                 for d in range(6) for _ in range(4)]

        def p(V):
            return sum(c * np.prod(V ** k, axis=-1) for c, k in terms)

        def exact(y):
            H = np.zeros((n, n))
            for c, k in terms:
                for i in range(n):
                    for j in range(n):
                        kk = k.astype(float).copy()
                        f = kk[i]
                        kk[i] -= 1
                        f *= kk[j]
                        kk[j] -= 1
                        if f != 0.0:
                            H[i, j] += c * f * np.prod(y ** np.maximum(kk, 0))
            return H

        Y = rng.uniform(-1.0, 1.0, (5, n))
        h = rng.uniform(0.5, 1.0, 5)  # wide steps: exactness holds at any h, roundoff falls
        H = hessian_combine(p(hessian_points(Y, h)).reshape(5, -1), h)
        for y, Hk in zip(Y, H):
            ref = exact(y)
            assert np.abs(Hk - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_noisy_hessian_raises_accuracy_error(self):
        # an energy with a tiny fast oscillation: the halved-step estimates
        # cannot agree
        def norm(x, y):
            return math.sqrt(float(y @ y) + 2e-3 * math.sin(4e5 * y[0]))

        noisy = SimpleNamespace(dimension=2, closed_form=False,
                                check_line_element=lambda x, y: (x, y),
                                metric_tensor=lambda x, y: None, norm=norm)
        with pytest.raises(AccuracyError):
            fundamental_tensor(noisy, [0.0, 0.0], [1.0, 1.0])
