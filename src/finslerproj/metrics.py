"""Shipped Finsler structures.

Euclidean, Riemannian-from-tensor (with the Klein ball exemplar), Randers,
the Funk metric of a quadratic domain, and the interval Funk metric. All
closed forms are written branch-free over the coordinate entries so the jet
engine can differentiate them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FinslerMetric, positive_finite, validate_strong_convexity
from .diffengine import jet_value, jet_where, smooth_sqrt
from .errors import ConstructionError, ConvexityError, DomainError


def _dot(u, v):
    acc = u[0] * v[0]
    for i in range(1, len(u)):
        acc = acc + u[i] * v[i]
    return acc


def _mat_vec(m, v):
    return [_dot(row, v) for row in m]


# ======================================================================
# Euclidean
# ======================================================================

class EuclideanMetric(FinslerMetric):
    """The flat norm |y| on all of R^n."""

    name = "euclidean"
    spray_supports_jets = True
    _norm_takes_columns = True

    def __init__(self, dimension):
        if dimension < 2:
            raise ConstructionError("Finsler structures need dimension n >= 2")
        self.dimension = int(dimension)

    def _norm_impl(self, x, y):
        return smooth_sqrt(_dot(y, y))

    def metric_tensor(self, x, y):
        return np.eye(self.dimension)

    def _spray_impl(self, x, y):
        return [0.0] * self.dimension

    def random_interior_point(self, rng):
        return rng.uniform(-1.0, 1.0, self.dimension)


# ======================================================================
# Riemannian metrics and the Klein exemplar
# ======================================================================

@dataclass(frozen=True)
class RiemannianSpec:
    """Riemannian data: a tensor provider and optional analytic Christoffels.

    metric_provider(x) -> symmetric positive-definite (n, n) array.
    christoffel_provider(x) -> (n, n, n) array Gamma[i, j, k], optional.
    domain_provider(x) -> float, positive inside the domain, optional.
    """

    dimension: int
    metric_provider: Callable
    christoffel_provider: Callable | None = None
    domain_provider: Callable | None = None
    domain_scale: float = 1.0
    name: str = "riemannian"

    def __post_init__(self):
        if self.dimension < 2:
            raise ConstructionError("Finsler structures need dimension n >= 2")


class RiemannianMetric(FinslerMetric):
    """sqrt(g_ij(x) y^i y^j) for a user-supplied tensor field."""

    supports_jets = False  # provider signature is plain-float; g is analytic anyway

    def __init__(self, spec: RiemannianSpec):
        self.spec = spec
        self.dimension = spec.dimension
        self.domain_scale = spec.domain_scale
        self.name = spec.name

    def _norm_impl(self, x, y):
        g = self.spec.metric_provider(np.asarray(x, dtype=float))
        return math.sqrt(float(np.asarray(y) @ g @ np.asarray(y)))

    def domain_value(self, x):
        if self.spec.domain_provider is None:
            return math.inf
        return float(self.spec.domain_provider(np.asarray(x, dtype=float)))

    def metric_tensor(self, x, y):
        return np.asarray(self.spec.metric_provider(np.asarray(x, dtype=float)), dtype=float)

    def spray_vector(self, x, y):
        if self.spec.christoffel_provider is None:
            return super().spray_vector(x, y)  # a subclass's closed form, or None
        gamma = np.asarray(self.spec.christoffel_provider(np.asarray(x, dtype=float)))
        y = np.asarray(y, dtype=float)
        return np.einsum("ijk,j,k->i", gamma, y, y)


class KleinMetric(RiemannianMetric):
    """Hyperbolic metric on the open unit ball in projective (chord) coordinates.

    F^2 = |y|^2/(1-|x|^2) + <x,y>^2/(1-|x|^2)^2. Geodesics are straight
    chords and the Ricci tensor equals -(n-1) g, which makes this the
    canonical fixture satisfying a negative Ricci bound with c^2 = n-1.
    """

    supports_jets = True
    spray_supports_jets = True
    name = "klein"
    _norm_takes_columns = True

    def __init__(self, dimension):
        def g(x):
            phi = 1.0 - x @ x
            return np.eye(len(x)) / phi + np.outer(x, x) / phi ** 2

        super().__init__(RiemannianSpec(dimension=dimension, metric_provider=g, name="klein",
                                        domain_provider=lambda x: 1.0 - float(x @ x)))

    def _spray_impl(self, x, y):
        phi = 1.0 - _dot(x, x)
        if isinstance(phi, float) and phi <= 0.0:
            # a trial stage on or past the sphere: NaN makes the integrator
            # reject the step and shrink it instead of raising
            return [math.nan] * len(y)
        p = 2.0 * _dot(x, y) / phi
        return [p * yi for yi in y]

    def _norm_impl(self, x, y):
        phi = 1.0 - _dot(x, x)
        xy = _dot(x, y)
        return smooth_sqrt(_dot(y, y) / phi + xy * xy / (phi * phi))

    def random_interior_point(self, rng):
        x = rng.normal(size=self.dimension)
        r = rng.uniform(0.0, 1.0) ** (1.0 / self.dimension)
        return 0.9 * r * x / np.linalg.norm(x)


def klein_metric(n) -> KleinMetric:
    """The Klein ball exemplar in dimension n >= 2."""
    if n < 2:
        raise ConstructionError("klein_metric needs n >= 2")
    return KleinMetric(n)


# ======================================================================
# Funk metric of a quadratic domain
# ======================================================================

@dataclass(frozen=True)
class QuadraticDomainSpec:
    """Quadratic domain data: phi(x) = x alpha x + 2 beta x + gamma > 0.

    alpha must be symmetric and gamma positive; k is the positive constant
    dividing the Funk norm. Strict convexity of the domain is the caller's
    responsibility; a non-negative-definite -alpha only triggers a warning.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: float
    k: float = 1.0

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConstructionError("alpha must be a square matrix")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ConstructionError("alpha must be symmetric")
        if b.shape != (a.shape[0],):
            raise ConstructionError("beta must match alpha's dimension")
        if not self.gamma > 0:
            raise ConstructionError("gamma must be a positive number")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "k", positive_finite(self.k, "the Funk constant k"))
        if np.linalg.eigvalsh(-a)[0] < -1e-12:
            warnings.warn("-alpha is not positive semidefinite; the domain may "
                          "not be strictly convex", stacklevel=2)

    @property
    def dimension(self):
        return self.alpha.shape[0]

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ self.alpha @ x + 2.0 * self.beta @ x + self.gamma)

    def center(self):
        """Critical point of phi (the ellipsoid center when -alpha > 0)."""
        return np.linalg.solve(-self.alpha, self.beta)


def _funk_theta(alpha, beta, gamma, x, y):
    """k-free Funk norm of a quadratic domain, jet-safe and cancellation-safe.

    Theta = (sqrt(wy^2 - (y alpha y) phi) - wy) / phi with w = alpha x + beta.
    For wy > 0 the difference of nearly equal square roots is rationalized to
    -(y alpha y) / (sqrt + wy), which stays accurate down to the boundary.
    Entries that are (N,) arrays, or jets over them, evaluate N line elements
    at once, each element taking its own branch.
    """
    ax = _mat_vec(alpha, x)
    p = _dot(x, ax) + 2.0 * _dot(beta, x) + gamma
    w = [wi + bi for wi, bi in zip(ax, beta)]
    wy = _dot(w, y)
    ayy = _dot(y, _mat_vec(alpha, y))
    radicand = wy * wy - ayy * p
    r0 = jet_value(radicand)
    batch = isinstance(r0, np.ndarray)
    if np.any(r0 < 0.0) if batch else r0 < 0.0:
        raise ConvexityError("a_ij y y < 0; the quadratic domain is not strictly convex "
                             "at this line element")
    root = smooth_sqrt(radicand)
    if batch:
        return jet_where(jet_value(wy) >= 0.0, -ayy / (root + wy), (root - wy) / p)
    if jet_value(wy) >= 0.0:
        return -ayy / (root + wy)
    return (root - wy) / p


class QuadraticFunkMetric(FinslerMetric):
    """Funk metric of a quadratic domain, (sqrt(a_ij y y) + b_i y) / k.

    The coefficient fields a_ij(x) and b_j(x) are the closed quadratic-domain
    forms; b_j also equals -d/dx^j log(phi)/2, which the suite checks. The
    spray is projectively flat, G = k F y.
    """

    name = "quadratic-funk"
    spray_supports_jets = True
    _norm_takes_columns = True

    def __init__(self, spec: QuadraticDomainSpec):
        self.spec = spec
        self.dimension = spec.dimension
        self.domain_scale = spec.gamma
        # Python floats: numpy scalars' IEEE results without their overhead
        self._alpha, self._beta = spec.alpha.tolist(), spec.beta.tolist()

    def domain_value(self, x):
        return self.spec.phi(x)

    def coefficient_matrix(self, x):
        """a_ij(x) of the Funk norm numerator."""
        x = np.asarray(x, dtype=float)
        p = self.spec.phi(x)
        w = self.spec.alpha @ x + self.spec.beta
        return (np.outer(w, w) - self.spec.alpha * p) / p ** 2

    def coefficient_oneform(self, x):
        """b_j(x) of the Funk norm, equal to -grad log(phi)/2."""
        x = np.asarray(x, dtype=float)
        p = self.spec.phi(x)
        w = self.spec.alpha @ x + self.spec.beta
        return -w / p

    def _norm_impl(self, x, y):
        return _funk_theta(self._alpha, self._beta, self.spec.gamma, x, y) / self.spec.k

    def metric_tensor(self, x, y):
        return _randers_tensor(self.coefficient_matrix(x),
                               self.coefficient_oneform(x),
                               np.asarray(y, dtype=float)) / self.spec.k ** 2

    def _spray_impl(self, x, y):
        # projectively flat with factor k F, so G = k F y; the k cancels
        # against the 1/k inside F
        theta = _funk_theta(self._alpha, self._beta, self.spec.gamma, x, y)
        return [theta * yi for yi in y]

    def random_interior_point(self, rng):
        # exact interior sampling of the ellipsoid when -alpha > 0
        vals, vecs = np.linalg.eigh(-self.spec.alpha)
        if vals[0] <= 0:
            return super().random_interior_point(rng)
        xc = self.spec.center()
        c0 = self.spec.phi(xc)
        u = rng.normal(size=self.dimension)
        u /= np.linalg.norm(u)
        r = rng.uniform(0.0, 1.0) ** (1.0 / self.dimension)
        return xc + 0.9 * r * (vecs @ (np.sqrt(c0 / vals) * (vecs.T @ u)))


def funk_from_quadratic(spec: QuadraticDomainSpec) -> QuadraticFunkMetric:
    """Funk metric of the quadratic domain phi > 0."""
    return QuadraticFunkMetric(spec)


def funk_ball(n, k=1.0) -> QuadraticFunkMetric:
    """Funk metric of the open unit ball (alpha=-I, beta=0, gamma=1)."""
    return funk_from_quadratic(
        QuadraticDomainSpec(alpha=-np.eye(n), beta=np.zeros(n), gamma=1.0, k=k))


# ======================================================================
# Interval Funk metric (the 1-d model space)
# ======================================================================

class IntervalFunkMetric:
    """Funk metric of the open interval (-1, 1).

    F(u, y) = (|y| + u y) / (k (1 - u^2)), which is y/(k(1-u)) forward and
    |y|/(k(1+u)) backward. Kept one-dimensional and separate from the n >= 2
    structures; geodesics on I are trivial and the induced distance has the
    closed form implemented in the distance module.
    """

    dimension = 1
    domain_scale = 1.0
    name = "interval-funk"

    def __init__(self, k=1.0):
        self.k = positive_finite(k, "the Funk constant k")

    def domain_value(self, x):
        u = float(np.atleast_1d(x)[0])
        return 1.0 - u * u

    def norm(self, x, y):
        u, v = np.atleast_1d(x), np.atleast_1d(y)
        if u.shape != (1,) or v.shape != (1,):
            raise DomainError(f"interval-funk: x and y need one component each, "
                              f"got {u.size} and {v.size}")
        return interval_funk_eval(float(u[0]), float(v[0]), self.k)

    def __call__(self, x, y):
        return self.norm(x, y)


def interval_funk_eval(u, y, k=1.0) -> float:
    """Interval Funk norm (|y| + u y) / (k (1 - u^2)) at u in (-1, 1)."""
    if not abs(u) < 1.0:
        raise DomainError(f"interval-funk: u={u} outside (-1, 1)")
    if y == 0.0:
        raise DomainError("interval-funk: metric evaluation needs a nonzero vector")
    k = positive_finite(k, "the Funk constant k")
    return (abs(y) + u * y) / (k * (1.0 - u * u))


# ======================================================================
# Randers metrics
# ======================================================================

def _randers_tensor(a, b, y):
    """Fundamental tensor of sqrt(y a y) + b y at the vector y."""
    alpha = math.sqrt(float(y @ a @ y))
    ay = a @ y
    li = ay / alpha                       # d alpha / d y
    F = alpha + float(b @ y)
    return (F / alpha) * (a - np.outer(li, li)) + np.outer(li + b, li + b)


@dataclass(frozen=True)
class RandersSpec:
    """Randers data F = sqrt(a_ij y y) + b_i y.

    a_provider(x) -> SPD matrix, b_provider(x) -> covector. Constant arrays
    are accepted in place of providers. jet_safe marks providers written as
    plain arithmetic, which lets the jet engine differentiate the norm.
    """

    dimension: int
    a_provider: Callable | np.ndarray
    b_provider: Callable | np.ndarray
    domain_box: float = 1.0
    jet_safe: bool = False
    name: str = "randers"

    def __post_init__(self):
        if self.dimension < 2:
            raise ConstructionError("Finsler structures need dimension n >= 2")
        n = self.dimension
        for name, value, shape in (("a", self.a_provider, (n, n)), ("b", self.b_provider, (n,))):
            if not callable(value) and np.shape(value) != shape:
                raise ConstructionError(f"randers: a constant {name} must have shape {shape}, "
                                        f"got {np.shape(value)}")

    def a_at(self, x):
        if callable(self.a_provider):
            return np.asarray(self.a_provider(x), dtype=float)
        return np.asarray(self.a_provider, dtype=float)

    def b_at(self, x):
        if callable(self.b_provider):
            return np.asarray(self.b_provider(x), dtype=float)
        return np.asarray(self.b_provider, dtype=float)


class RandersMetric(FinslerMetric):
    """Randers norm with analytic fundamental tensor."""

    def __init__(self, spec: RandersSpec):
        self.spec = spec
        self.dimension = spec.dimension
        self.supports_jets = spec.jet_safe
        self.name = spec.name
        self._constant = not callable(spec.a_provider) and not callable(spec.b_provider)
        self.spray_supports_jets = self._constant
        self._norm_takes_columns = self._constant  # providers may be float-only

    def _norm_impl(self, x, y):
        if self._constant:
            a = self.spec.a_at(None)
            b = self.spec.b_at(None)
        else:
            a = self.spec.a_provider(x)
            b = self.spec.b_provider(x)
        return smooth_sqrt(_dot(y, _mat_vec(a, y))) + _dot(b, y)

    def metric_tensor(self, x, y):
        x = np.asarray(x, dtype=float)
        return _randers_tensor(self.spec.a_at(x), self.spec.b_at(x),
                               np.asarray(y, dtype=float))

    def _spray_impl(self, x, y):  # constant a and b only: straight lines
        return [0.0] * self.dimension

    def one_form_norm(self, x) -> float:
        """|b|_a at x, the Randers smallness quantity."""
        a = self.spec.a_at(np.asarray(x, dtype=float))
        b = self.spec.b_at(np.asarray(x, dtype=float))
        return math.sqrt(float(b @ np.linalg.solve(a, b)))

    def random_interior_point(self, rng):
        s = self.spec.domain_box * 0.9
        return rng.uniform(-s, s, self.dimension)


def randers_metric(spec: RandersSpec, grid_points=40, rng_seed=7) -> RandersMetric:
    """Construct a Randers metric, rejecting |b|_a >= 1.

    The smallness condition and strong convexity are validated on a random
    sample grid over the declared domain box at construction time.
    """
    metric = RandersMetric(spec)
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    worst_x = None
    for _ in range(grid_points):
        x = metric.random_interior_point(rng)
        nb = metric.one_form_norm(x)
        if nb > worst:
            worst, worst_x = nb, x
    if worst >= 1.0:
        raise ConstructionError(
            f"randers: |b|_a = {worst:.4f} >= 1 at x={np.asarray(worst_x).tolist()}")
    report = validate_strong_convexity(metric, metric.random_line_elements(grid_points, rng))
    if not report.passed:
        raise ConstructionError("randers: strong convexity fails on the sample grid")
    return metric
