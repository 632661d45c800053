"""Jet arithmetic, nested jet levels, the stencil, and the y-Hessian."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from finslerproj.diffengine import (Jet, central_d1, extract_coefficient,
                                    fundamental_tensor)
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
        inner = Jet.variable(1.0, 2, level=1)
        outer = Jet([inner, 1.0], level=2)
        with pytest.raises(ConstructionError, match="highest"):
            extract_coefficient(outer, 1, 0)

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


def nested_partial(field, x, y, x_orders, y_orders):
    """Mixed partial of field(x, y) by one nested jet level per active
    coordinate, extracted from the highest level down."""
    xs, ys = list(x), list(y)
    levels = []
    for coords, orders in ((xs, x_orders), (ys, y_orders)):
        for i, o in enumerate(orders):
            if o > 0:
                coords[i] = Jet.variable(coords[i], o, level=len(levels) + 1)
                levels.append(o)
    value = field(xs, ys)
    for level in range(len(levels), 0, -1):
        value = extract_coefficient(value, level, levels[level - 1])
        value = value * math.factorial(levels[level - 1])
    assert not isinstance(value, Jet)
    return float(value)


def stripped(metric, supports_jets):
    """The norm of `metric` without its analytic fundamental tensor, so
    fundamental_tensor has to differentiate it."""
    return SimpleNamespace(
        dimension=metric.dimension, supports_jets=supports_jets,
        check_line_element=metric.check_line_element,
        metric_tensor=lambda x, y: None,
        _norm_impl=metric._norm_impl, norm=metric.norm)


class TestNestedJets:
    """The nested levels the curvature jets rely on (x order <= 2, y order
    <= 3), against exact differentiation of random polynomials."""

    def test_random_polynomials(self, rng):
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

        checked = 0
        for _ in range(100):
            terms = []
            for _ in range(rng.integers(2, 6)):
                ex = rng.integers(0, 4, size=4)
                while ex.sum() > 6:
                    ex = rng.integers(0, 4, size=4)
                terms.append((float(rng.uniform(-2, 2)), ex))
            xo = [int(o) for o in rng.integers(0, 3, size=2)]
            yo = [int(o) for o in rng.integers(0, 4, size=2)]
            if sum(xo) > 2 or sum(yo) > 3 or sum(xo) + sum(yo) == 0:
                continue

            def field(x, y, terms=terms):
                acc = 0.0
                for c, ex in terms:
                    acc = acc + (c * x[0] ** int(ex[0]) * x[1] ** int(ex[1])
                                 * y[0] ** int(ex[2]) * y[1] ** int(ex[3]))
                return acc

            x0 = rng.uniform(0.2, 1.2, 2)
            y0 = rng.uniform(0.2, 1.2, 2)
            expected = oracle(terms, xo + yo, np.concatenate([x0, y0]))
            got = nested_partial(field, x0, y0, xo, yo)
            assert abs(got - expected) / max(1.0, abs(expected)) < 1e-10
            checked += 1
        assert checked >= 30

    def test_mixed_partial_of_monomial(self):
        # d/dx1 d^3/dy2^3 of x1 y2^3 is 6 everywhere
        value = nested_partial(lambda x, y: x[0] * y[1] ** 3,
                               [0.7, -0.2], [0.3, 0.5], [1, 0], [0, 3])
        assert value == pytest.approx(6.0, abs=1e-12)

    def test_funk_ball_golden_x_derivative(self, ball2):
        def field(x, y):
            f = ball2._norm_impl(x, y)
            return f * f

        value = nested_partial(field, [0.5, 0.0], [1.0, 0.0], [1, 0], [0, 0])
        assert value == pytest.approx(FUNK_BALL_DF2_DX1, abs=1e-10)


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
        # jet route on the raw norm against the closed-form tensor
        x = np.array([0.3, -0.2])
        y = np.array([0.8, 0.5])
        analytic = fundamental_tensor(ball2, x, y)
        numeric = fundamental_tensor(stripped(ball2, supports_jets=True), x, y)
        assert np.abs(numeric - analytic).max() < 1e-9

    @pytest.mark.parametrize("make", [lambda: funk_ball(2), lambda: funk_ball(3),
                                      lambda: klein_metric(3), lambda: EuclideanMetric(2)],
                             ids=["funk-ball-2", "funk-ball-3", "klein-3", "euclidean-2"])
    def test_stencil_route_matches_analytic(self, make, rng):
        # central differences with Richardson extrapolation on a black-box
        # norm, within the finite-difference tolerance
        metric = make()
        black_box = stripped(metric, supports_jets=False)
        for x, y in metric.random_line_elements(10, rng):
            analytic = fundamental_tensor(metric, x, y)
            numeric = fundamental_tensor(black_box, x, y)
            scale = max(1.0, float(np.abs(analytic).max()))
            assert np.abs(numeric - analytic).max() / scale < 1e-7

    def test_noisy_hessian_raises_accuracy_error(self):
        # an energy with a tiny fast oscillation: the halved-step estimates
        # cannot agree
        def norm(x, y):
            return math.sqrt(float(y @ y) + 2e-3 * math.sin(4e5 * y[0]))

        noisy = SimpleNamespace(dimension=2, supports_jets=False,
                                check_line_element=lambda x, y: (x, y),
                                metric_tensor=lambda x, y: None, norm=norm)
        with pytest.raises(AccuracyError):
            fundamental_tensor(noisy, [0.0, 0.0], [1.0, 1.0])
