"""Shipped Finsler structures.

Euclidean, Riemannian-from-tensor (with the Klein ball exemplar), Randers,
and the Funk metric of a quadratic domain, plus the interval Funk norm as a
function of floats. All closed forms are written branch-free over the
coordinate entries so the jet engine can differentiate them.
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


# ======================================================================
# Euclidean
# ======================================================================

class EuclideanMetric(FinslerMetric):
    """The flat norm |y| on all of R^n."""

    name = "euclidean"
    closed_form = True

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
    """Riemannian data: a tensor provider and an optional domain.

    metric_provider(x) -> symmetric positive-definite (n, n) array.
    domain_provider(x) -> float, positive inside the domain, optional.
    """

    dimension: int
    metric_provider: Callable
    domain_provider: Callable | None = None
    name: str = "riemannian"

    def __post_init__(self):
        if self.dimension < 2:
            raise ConstructionError("Finsler structures need dimension n >= 2")


class RiemannianMetric(FinslerMetric):
    """sqrt(g_ij(x) y^i y^j) for a user-supplied tensor field."""

    def __init__(self, spec: RiemannianSpec):
        self.spec = spec
        self.dimension = spec.dimension
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


class KleinMetric(RiemannianMetric):
    """Hyperbolic metric on the open unit ball in projective (chord) coordinates.

    F^2 = |y|^2/(1-|x|^2) + <x,y>^2/(1-|x|^2)^2. Geodesics are straight
    chords and the Ricci tensor equals -(n-1) g, which makes this the
    canonical fixture satisfying a negative Ricci bound with c^2 = n-1.
    """

    closed_form = True
    name = "klein"

    def __init__(self, dimension):
        def g(x):
            phi = 1.0 - x @ x
            return np.eye(len(x)) / phi + np.outer(x, x) / phi ** 2

        super().__init__(RiemannianSpec(dimension=dimension, metric_provider=g, name="klein",
                                        domain_provider=lambda x: 1.0 - float(x @ x)))

    def domain_value(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return 1.0 - float(np.dot(x, x))  # np.dot: the bits of x @ x, sooner
        return 1.0 - (x[:, None, :] @ x[:, :, None])[:, 0, 0]

    def _spray_impl(self, x, y):
        xx, xy = x[0] * x[0], x[0] * y[0]  # _dot(x, x) and _dot(x, y) in one pass
        for i in range(1, len(x)):
            xx, xy = xx + x[i] * x[i], xy + x[i] * y[i]
        phi = 1.0 - xx
        if isinstance(phi, float) and phi <= 0.0:
            # a trial stage on or past the sphere: NaN makes the integrator
            # reject the step and shrink it instead of raising
            return [math.nan] * len(y)
        p = 2.0 * xy / phi
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
        object.__setattr__(self, "_beta2", 2.0 * b)  # phi's 2 beta, held once
        if np.linalg.eigvalsh(-a)[0] < -1e-12:
            warnings.warn("-alpha is not positive semidefinite; the domain may "
                          "not be strictly convex", stacklevel=2)

    @property
    def dimension(self):
        return self.alpha.shape[0]

    def phi(self, x):
        """phi at one point, or its rows' values, bit for bit, on an (N, n) stack."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:  # np.dot: the bits of x @ alpha @ x + 2 beta @ x, sooner
            return float(np.dot(np.dot(x, self.alpha), x) + np.dot(self._beta2, x) + self.gamma)
        r = x[:, None, :]
        return ((r @ self.alpha) @ x[:, :, None] + r @ self._beta2[:, None])[:, 0, 0] + self.gamma

    def center(self):
        """Critical point of phi (the ellipsoid center when -alpha > 0)."""
        return np.linalg.solve(-self.alpha, self.beta)


def _funk_theta(alpha, beta, gamma, x, y):
    """k-free Funk norm of a quadratic domain, jet-safe and cancellation-safe.

    Theta = (sqrt(wy^2 - (y alpha y) phi) - wy) / phi with w = alpha x + beta.
    For wy > 0 the difference of nearly equal square roots is rationalized to
    -(y alpha y) / (sqrt + wy), which stays accurate down to the boundary.
    Entries that are (N,) arrays, or Dual2 numbers over them, evaluate N line
    elements at once, each element taking its own branch. The sums x alpha x,
    beta x, w y and y alpha y run in one pass over the rows of alpha, each
    left to right in _dot's operand order, so each has the bits of its _dot.
    """
    n = len(x)
    for i in range(n):
        row, xi, yi, bi = alpha[i], x[i], y[i], beta[i]
        axi, ayi = row[0] * x[0], row[0] * y[0]
        for j in range(1, n):
            axi, ayi = axi + row[j] * x[j], ayi + row[j] * y[j]
        if i:
            xax, bx, wy, ayy = xax + xi * axi, bx + bi * xi, wy + (axi + bi) * yi, ayy + yi * ayi
        else:
            xax, bx, wy, ayy = xi * axi, bi * xi, (axi + bi) * yi, yi * ayi
    p = xax + 2.0 * bx + gamma
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
    closed_form = True

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
# Interval Funk norm (the 1-d model space)
# ======================================================================

def interval_funk_eval(u, y, k=1.0) -> float:
    """Interval Funk norm (|y| + u y) / (k (1 - u^2)) at u in (-1, 1): y/(k(1-u))
    forward and |y|/(k(1+u)) backward. Geodesics on the interval are trivial and
    its distance has the closed form in the distance module."""
    if not abs(u) < 1.0:
        raise DomainError(f"interval-funk: u={u} outside (-1, 1)")
    if not math.isfinite(y):
        raise DomainError("interval-funk: vector has non-finite components")
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
    are accepted in place of providers.
    """

    dimension: int
    a_provider: Callable | np.ndarray
    b_provider: Callable | np.ndarray
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
        self.name = spec.name
        # constant a and b only: providers may be float-only
        self.closed_form = not callable(spec.a_provider) and not callable(spec.b_provider)
        if self.closed_form:  # as Python floats, which overflow to inf without a warning
            self._a, self._b = spec.a_at(None).tolist(), spec.b_at(None).tolist()

    def _norm_impl(self, x, y):
        a, b = (self._a, self._b) if self.closed_form else (self.spec.a_at(x), self.spec.b_at(x))
        return smooth_sqrt(_dot(y, [_dot(row, y) for row in a])) + _dot(b, y)

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


def _check_spd(a, where=""):
    """ConstructionError unless the Randers a is finite, symmetric and positive
    definite, as its square root and |b|_a need; `where` names the point."""
    ok = bool(np.all(np.isfinite(a))) and np.allclose(a, a.T, atol=1e-12)
    if ok:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            ok = False
    if not ok:
        raise ConstructionError(
            f"randers: a is not a finite symmetric positive-definite matrix{where}")


def randers_metric(spec: RandersSpec) -> RandersMetric:
    """Construct a Randers metric, rejecting an a that is not symmetric positive
    definite and |b|_a >= 1.

    A constant a is checked once; a field a, |b|_a and strong convexity are
    validated on a grid of 40 random points of the box (-0.9, 0.9)^n.
    """
    metric = RandersMetric(spec)
    a_varies = callable(spec.a_provider)
    if not a_varies:
        _check_spd(spec.a_at(None))
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_x = None
    for _ in range(40):
        x = metric.random_interior_point(rng)
        if a_varies:
            _check_spd(spec.a_at(x), f" at x={x.tolist()}")
        nb = metric.one_form_norm(x)
        if nb > worst:
            worst, worst_x = nb, x
    if worst >= 1.0:
        raise ConstructionError(
            f"randers: |b|_a = {worst:.4f} >= 1 at x={np.asarray(worst_x).tolist()}")
    report = validate_strong_convexity(metric, metric.random_line_elements(40, rng))
    if not report.passed:
        raise ConstructionError("randers: strong convexity fails on the sample grid")
    return metric
