"""Axiom validators and boundary room."""

import math

import numpy as np
import pytest

from finslerproj.core import (FinslerMetric, boundary_room, validate_homogeneity,
                              validate_strong_convexity)
from finslerproj.errors import AccuracyError, ConstructionError, DomainError
from finslerproj.metrics import klein_metric


class SquaredNormField(FinslerMetric):
    """Deliberately non-homogeneous: F = |y|^2."""

    name = "squared"

    def __init__(self):
        self.dimension = 2

    def _norm_impl(self, x, y):
        return float(np.dot(y, y))


class NoisyMetric(FinslerMetric):
    """Euclidean norm with a high-frequency ripple; breaks differencing."""

    name = "noisy"

    def __init__(self):
        self.dimension = 2

    def _norm_impl(self, x, y):
        base = math.sqrt(float(np.dot(y, y)))
        return base * (1.0 + 1e-5 * math.sin(4e5 * (float(y[0]) + 2.0 * float(y[1]))))


class TestArrayValidation:
    """check_point and check_line_element, the one entry check of every point
    and vector, which arrive as arrays or sequences of floats."""

    def test_point_checks(self, klein2):
        assert klein2.check_point([0.1, 0.2]).dtype == np.float64
        with pytest.raises(DomainError, match="non-finite coordinates"):
            klein2.check_point([np.inf, 0.0])
        with pytest.raises(DomainError, match="point dimension"):
            klein2.check_point([0.1, 0.2, 0.0])

    def test_vector_shape(self, klein2):
        x, y = klein2.check_line_element([0.1, 0.2], [1, 0])
        assert y.dtype == np.float64
        with pytest.raises(DomainError, match="vector dimension"):
            klein2.check_line_element([0.1, 0.2], [1.0, 0.0, 0.0])


class TestBoundaryRoom:
    def test_klein_matches_closed_form(self, rng):
        # phi = 1 - |x|^2 has gradient -2x, whose l1 norm is 2 sum |x_i|
        for n in (2, 3):
            metric = klein_metric(n)
            for _ in range(20):
                x = metric.random_interior_point(rng)
                exact = (1.0 - x @ x) / (2.0 * np.abs(x).sum())
                assert boundary_room(metric, x) == pytest.approx(exact, rel=1e-8)

    def test_unbounded_domain_is_infinite(self, eucl2):
        assert boundary_room(eucl2, np.array([3.0, -4.0])) == math.inf


class TestHomogeneity:
    def test_euclidean_exact(self, eucl2, rng):
        samples = [(rng.normal(size=2), rng.normal(size=2), float(rng.uniform(0.1, 10)))
                   for _ in range(50)]
        report = validate_homogeneity(eucl2, samples)
        assert report.passed
        assert report.checks[0].residual < 1e-14

    def test_funk_ball_hundred_samples(self, ball2, rng):
        samples = [(x, y, float(rng.uniform(0.1, 10.0)))
                   for x, y in ball2.random_line_elements(100, rng)]
        report = validate_homogeneity(ball2, samples)
        assert report.checks[0].residual <= 1e-12

    def test_squared_norm_fails(self, rng):
        metric = SquaredNormField()
        samples = [(rng.normal(size=2), rng.normal(size=2), 2.0) for _ in range(5)]
        report = validate_homogeneity(metric, samples)
        assert not report.passed

    def test_out_of_domain_sample_names_point(self, klein2):
        with pytest.raises(DomainError, match="1.5"):
            validate_homogeneity(klein2, [([1.5, 0.0], [1.0, 0.0], 2.0)])

    def test_no_samples_fails(self, klein2):
        # a check over no samples has checked nothing, so it must not pass
        report = validate_homogeneity(klein2, [])
        assert not report.passed
        assert report.checks[0].residual == math.inf

    @pytest.mark.parametrize("t", [0.0, -2.0, math.inf, math.nan])
    def test_factor_must_be_positive_and_finite(self, klein2, t):
        # t = inf is refused before y * t, whose 0 * inf would warn
        with pytest.raises(DomainError, match="positive and finite"):
            validate_homogeneity(klein2, [([0.1, 0.0], [1.0, 0.0], t)])

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, klein2, tolerance):
        # an infinite tolerance passed every sample; a nan one failed every sample
        with pytest.raises(ConstructionError):
            validate_homogeneity(klein2, [([0.1, 0.0], [1.0, 0.0], 2.0)], tolerance=tolerance)


class TestStrongConvexity:
    def test_euclidean_identity_eigenvalue(self, eucl2):
        report = validate_strong_convexity(eucl2, [([0.0, 0.0], [1.0, 0.0])])
        assert report.passed
        assert report.checks[0].residual == pytest.approx(-1.0, abs=1e-12)

    def test_no_samples_fails(self, klein2):
        report = validate_strong_convexity(klein2, [])
        assert not report.passed
        assert report.checks[0].residual == math.inf

    def test_klein_origin_identity(self, klein2):
        report = validate_strong_convexity(klein2, [([0.0, 0.0], [0.3, 0.4])])
        assert report.checks[0].residual == pytest.approx(-1.0, abs=1e-10)

    def test_oversized_one_form_fails_somewhere(self, rng):
        class BadRanders(FinslerMetric):
            name = "bad-randers"

            def __init__(self):
                self.dimension = 2

            def _norm_impl(self, x, y):
                return math.sqrt(float(np.dot(y, y))) + 1.5 * float(y[0])

        metric = BadRanders()
        # scan directions for an indefinite Hessian sample; the failure sits
        # in the cone where the too-large one-form drives F negative
        found = False
        for theta in np.linspace(0.1, 2 * math.pi, 24):
            y = np.array([math.cos(theta), math.sin(theta)])
            report = validate_strong_convexity(metric, [([0.0, 0.0], y)])
            if not report.passed:
                found = True
                break
        assert found

    def test_noisy_hessian_raises_accuracy_error(self):
        with pytest.raises(AccuracyError):
            validate_strong_convexity(NoisyMetric(), [([0.0, 0.0], [1.0, 0.5])])

