"""Jet arithmetic and the mixed-partial engine."""

import math

import numpy as np
import pytest

from finslerproj.diffengine import (DerivativeRequest, EngineConfig, Jet,
                                    central_d1, fundamental_tensor, partial)
from finslerproj.errors import AccuracyError
from finslerproj.metrics import EuclideanMetric, funk_ball

AUTO = EngineConfig()
FD = EngineConfig(mode="finite-difference")

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
        # f(u, v) = u^2 v^3: d2/du2 d/dv = 2 * 3 v^2 = 6 v^2
        u = Jet.variable(1.5, 2, level=2)
        v = Jet.variable(2.0, 1, level=1)
        f = u * u * (v * v * v)
        inner = f.coef[2] * 2  # second derivative in u
        assert inner.coef[1] == pytest.approx(6.0 * 4.0)

    def test_pow(self):
        t = Jet.variable(2.0, 2)
        assert (t ** 3).derivative(1) == pytest.approx(12.0)
        assert (t ** -1).derivative(1) == pytest.approx(-0.25)
        assert (t ** 0.5).derivative(1) == pytest.approx(0.5 / math.sqrt(2.0))


class TestPartial:
    def test_polynomial_mixed_partial_exact(self):
        field = lambda x, y: x[0] * y[1] ** 3
        req = DerivativeRequest(field, (1, 0), (0, 3), [0.7, -0.2], [0.3, 0.5])
        assert partial(req, AUTO) == pytest.approx(6.0, abs=1e-12)
        assert partial(req, FD) == pytest.approx(6.0, rel=1e-7)

    def test_euclidean_energy_hessian(self):
        metric = EuclideanMetric(2)

        def field(x, y):
            f = metric._norm_impl(x, y)
            return f * f

        for i in range(2):
            orders = [0, 0]
            orders[i] = 2
            req = DerivativeRequest(field, (0, 0), tuple(orders),
                                    [0.1, 0.2], [0.4, -0.3])
            assert partial(req, AUTO) == pytest.approx(2.0, abs=1e-12)

    def test_funk_ball_golden_x_derivative(self):
        ball = funk_ball(2)

        def field(x, y):
            f = ball._norm_impl(x, y)
            return f * f

        req = DerivativeRequest(field, (1, 0), (0, 0), [0.5, 0.0], [1.0, 0.0])
        assert partial(req, AUTO) == pytest.approx(FUNK_BALL_DF2_DX1, abs=1e-10)
        assert partial(req, FD) == pytest.approx(FUNK_BALL_DF2_DX1, rel=1e-7)

    def test_random_polynomials_both_modes(self, rng):
        # oracle: exact differentiation of the monomial representation
        for _ in range(25):
            n_terms = rng.integers(2, 6)
            terms = []
            for _ in range(n_terms):
                ex = rng.integers(0, 4, size=4)
                while ex.sum() > 6:
                    ex = rng.integers(0, 4, size=4)
                terms.append((float(rng.uniform(-2, 2)), ex))
            xo = [0, 0]
            yo = [0, 0]
            xo[rng.integers(0, 2)] = int(rng.integers(0, 3))
            yo[rng.integers(0, 2)] = int(rng.integers(0, 4))
            if sum(xo) + sum(yo) == 0 or sum(xo) + sum(yo) > 5:
                continue

            def field(x, y, terms=terms):
                acc = 0.0
                for c, ex in terms:
                    acc = acc + (c * x[0] ** int(ex[0]) * x[1] ** int(ex[1])
                                 * y[0] ** int(ex[2]) * y[1] ** int(ex[3]))
                return acc

            def oracle(terms, orders, point):
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
                        total += coef * np.prod(
                            [p ** (e - o) for p, e, o in zip(point, ex, orders)])
                return total

            x0 = rng.uniform(0.2, 1.2, 2)
            y0 = rng.uniform(0.2, 1.2, 2)
            expected = oracle(terms, list(xo) + list(yo),
                              np.concatenate([x0, y0]))
            req = DerivativeRequest(field, tuple(xo), tuple(yo), x0, y0)
            scale = max(1.0, abs(expected))
            assert abs(partial(req, AUTO) - expected) / scale < 1e-10
            assert abs(partial(req, FD) - expected) / scale < 1e-7

    def test_order_limits_rejected(self):
        field = lambda x, y: x[0]
        with pytest.raises(ValueError):
            DerivativeRequest(field, (3, 0), (0, 0), [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            DerivativeRequest(field, (0, 0), (4, 0), [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            DerivativeRequest(field, (2, 0), (2, 2), [0.0, 0.0], [1.0, 0.0])

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="symbolic")

    def test_richardson_disagreement_raises(self):
        field = lambda x, y: math.sin(4e5 * y[0]) * 1e-3
        req = DerivativeRequest(field, (0, 0), (2, 0), [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(AccuracyError):
            partial(req, FD)


class TestCentralD1:
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
        for i in range(2):
            for h in (1e-2, 1e-3):
                assert np.abs(central_d1(field, v, i, h) - jacobian(v)[:, i]).max() < 1e-12

    def test_scalar_field(self):
        d = central_d1(lambda v: float(v[0] ** 4 * v[1]), np.array([0.5, 2.0]), 0, 1e-2)
        assert abs(float(d) - 4.0 * 0.5 ** 3 * 2.0) < 1e-12


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
        # engine route on the raw norm against the closed-form tensor
        x = np.array([0.3, -0.2])
        y = np.array([0.8, 0.5])
        analytic = fundamental_tensor(ball2, x, y)

        class Stripped:
            dimension = 2
            supports_jets = True
            bounded_domain = True

            def check_line_element(self, xx, yy):
                return np.asarray(xx, float), np.asarray(yy, float)

            def metric_tensor(self, xx, yy):
                return None

            def _norm_impl(self, xx, yy):
                return ball2._norm_impl(xx, yy)

            def norm(self, xx, yy):
                return ball2.norm(xx, yy)

        numeric = fundamental_tensor(Stripped(), x, y)
        assert np.abs(numeric - analytic).max() < 1e-9
