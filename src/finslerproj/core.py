"""Chart-level primitives: the Finsler-structure base class, which validates
every point and vector as a float array, axiom validators, and arc length."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import integrate, interpolate

from .errors import AccuracyError, ConstructionError, DomainError

BOUNDARY_MARGIN = 1e-6  # geodesic IVPs stop at this fraction of the domain scale


class FinslerMetric:
    """A Finsler structure on a single global chart of dimension n >= 2.

    Subclasses implement `_norm_impl(x, y)` as branch-free arithmetic on the
    coordinate entries so that jets can flow through it, and may attach
    analytic providers for the fundamental tensor and the spray. Instances
    are immutable after construction and safe to share between threads.

    `closed_form` marks `_norm_impl` and `_spray_impl` as the library's own
    arithmetic, which takes floats, (N,) columns and jets alike, and is the
    only route flag. A black-box metric's norm gets float arrays row by row,
    its tensor comes from `metric_tensor` or the y-Hessian stencil, and its
    spray from `spray_vector` or stencils of its tensor (formal Christoffels).
    """

    dimension: int
    domain_scale: float = 1.0   # the gamma entering the boundary-margin rule
    closed_form: bool = False
    name: str = "finsler"

    # -- evaluation ------------------------------------------------------

    def norm(self, x, y) -> float:
        """F(x, y), validated: x inside the domain, y nonzero, F finite. Shipped
        closed forms run on Python floats, bit for bit their values on arrays."""
        x, y = self.check_line_element(x, y)
        if not self.closed_form:
            f = float(self._norm_impl(x, y))
        else:
            try:
                f = float(self._norm_impl(x.tolist(), y.tolist()))
            except ZeroDivisionError:  # the closed form divided by a value that rounded to 0
                raise DomainError(f"{self.name}: x={x.tolist()} is on the boundary, or "
                                  f"y={y.tolist()} is too small for the closed form") from None
        if not math.isfinite(f):
            raise DomainError(f"{self.name}: F is not finite at x={x.tolist()}, y={y.tolist()}")
        return f

    def norm_batch(self, X, Y) -> np.ndarray:
        """F at N line elements given as (N, n) stacks X, Y; element k equals
        norm(X[k], Y[k]). The whole stack is validated first, and the first
        invalid element raises its own check_line_element error; a shipped
        `_norm_impl` then runs once on the coordinate columns, any other is
        evaluated element by element. A non-finite F raises as in norm."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.ndim != 2 or X.shape != Y.shape:
            raise DomainError(f"{self.name}: line elements must come as two (N, n) "
                              f"stacks of one shape, got {X.shape} and {Y.shape}")
        valid = self.valid_line_elements(X, Y)
        if not valid.all():
            bad = int(np.argmin(valid))
            self.check_line_element(X[bad], Y[bad])
        F = self._norm_rows(X, Y)
        finite = np.isfinite(F)
        if not finite.all():
            bad = int(np.argmin(finite))
            self.norm(X[bad], Y[bad])  # raises norm's non-finite-F error
        return F

    def _norm_rows(self, X, Y) -> np.ndarray:
        """norm_batch's values on (N, n) float stacks whose rows
        valid_line_elements accepts, without validating them again."""
        if not self.closed_form:
            return np.array([float(self._norm_impl(x, y)) for x, y in zip(X, Y)], dtype=float)
        values = self._norm_impl(list(X.T), list(Y.T))
        return np.broadcast_to(np.asarray(values, dtype=float), (len(X),)).copy()

    def valid_line_elements(self, X, Y) -> np.ndarray:
        """Mask of the rows of the (N, n) stacks X, Y that check_line_element
        accepts: its finiteness and nonzero tests as reductions over the
        stack, its domain test row by row, exactly as check_point makes it."""
        if X.shape[1:] != (self.dimension,):
            return np.zeros(len(X), dtype=bool)
        size = np.abs(Y).max(axis=1)
        valid = np.isfinite(X).all(axis=1) & np.isfinite(size) & (size != 0.0)
        valid[valid] = [self.domain_value(x) > 0.0 for x, ok in zip(X, valid) if ok]
        return valid

    def __call__(self, x, y) -> float:
        return self.norm(x, y)

    def _norm_impl(self, x, y):
        raise NotImplementedError

    # -- domain ------------------------------------------------------------

    def domain_value(self, x) -> float:
        """phi(x); positive inside the domain. Unbounded metrics return +inf."""
        return math.inf

    @property
    def bounded_domain(self) -> bool:
        return math.isfinite(self.domain_value(np.zeros(self.dimension)))

    def check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DomainError(
                f"{self.name}: point dimension {x.shape} does not match n={self.dimension}")
        if not np.all(np.isfinite(x)):
            raise DomainError(f"{self.name}: point has non-finite coordinates")
        if not self.domain_value(x) > 0.0:
            raise DomainError(f"{self.name}: point {x.tolist()} outside the domain")
        return x

    def check_line_element(self, x, y):
        x = self.check_point(x)
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dimension,):
            raise DomainError(
                f"{self.name}: vector dimension {y.shape} does not match n={self.dimension}")
        size = float(np.abs(y).max())  # one reduction for both checks; NaN propagates
        if not math.isfinite(size):
            raise DomainError(f"{self.name}: vector has non-finite components")
        if size == 0.0:
            raise DomainError(f"{self.name}: metric evaluation needs a nonzero vector")
        return x, y

    # -- optional analytic providers ---------------------------------------

    def metric_tensor(self, x, y):
        """Analytic fundamental tensor, or None to fall back on the engine."""
        return None

    def spray_vector(self, x, y):
        """Analytic spray coefficients, or None. Where `closed_form`, the closed
        form `_spray_impl` on floats, NaN where it divides by 0."""
        if not self.closed_form:
            return None
        y = np.asarray(y, dtype=float)
        try:
            return np.array(self._spray_impl(np.asarray(x, dtype=float).tolist(), y.tolist()))
        except ZeroDivisionError:
            return np.full(y.shape, np.nan)

    def _spray_impl(self, x, y):
        """Jet-safe spray as a component list; only when closed_form."""
        raise NotImplementedError

    # -- sampling (used by validators, tests, the CLI) ----------------------

    def random_interior_point(self, rng) -> np.ndarray:
        for _ in range(1000):
            x = rng.uniform(-0.9, 0.9, self.dimension)
            if self.domain_value(x) > 0.05 * self.domain_scale:
                return x
        raise DomainError(f"{self.name}: interior sampling failed")

    def random_line_elements(self, count, rng):
        out = []
        for _ in range(count):
            x = self.random_interior_point(rng)
            y = rng.normal(size=self.dimension)
            while not np.any(y != 0.0):
                y = rng.normal(size=self.dimension)
            out.append((x, y))
        return out


def positive_finite(value, what) -> float:
    """float(value) if its square is finite and positive, else ConstructionError: a
    tolerance, step or constant whose square is 0, inf or nan breaks its check."""
    value = float(value)
    if not (value > 0.0 and 0.0 < value * value < math.inf):
        raise ConstructionError(f"{what} must be positive with a finite, nonzero square, "
                                f"got {value!r}")
    return value


def unit_scaled(y):
    """(y 2^-e, e) with max|y 2^-e| in [1/2, 1), row by row for an (N, n)
    stack. The scaling is exact, so a 0-homogeneous quantity evaluated at
    y 2^-e is the same float at every power-of-two scale of y, and F^2 there
    cannot over- or underflow on the vector's scale alone."""
    e = np.frexp(np.abs(y).max(axis=-1))[1]
    return np.ldexp(y, -e[..., None]), e


def boundary_room(metric, x) -> float:
    """Coordinate room around x before a stencil exits the domain: phi(x) over
    the l1 norm of its central-difference gradient; +inf when unbounded."""
    if not metric.bounded_domain:
        return math.inf
    phi = metric.domain_value(x)
    probe = 1e-6 * max(1.0, float(np.abs(x).max()))
    grad = sum(abs(metric.domain_value(x + probe * e) - metric.domain_value(x - probe * e))
               for e in np.eye(metric.dimension)) / (2 * probe)
    return phi / (grad + 1e-300)


# ======================================================================
# Validation reports
# ======================================================================

class _Report:
    """to_dict() for a report dataclass: its fields, less those named in
    `_hidden`, plus the attributes `_added` maps to keys, as plain Python data
    (numpy as lists and floats, a nested report through its own to_dict)."""

    _hidden = ()
    _added = {}

    def to_dict(self):
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)
               if f.name not in self._hidden}
        return out | {key: _plain(getattr(self, name)) for key, name in self._added.items()}


def _plain(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return [_plain(v) for v in value] if isinstance(value, (list, tuple)) else value


@dataclass(frozen=True)
class CheckRecord(_Report):
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass
class ValidationReport(_Report):
    """Named residual checks; a check passes iff residual <= tolerance."""

    checks: list = field(default_factory=list)
    _added = {"passed": "passed"}

    def add(self, name, residual, tolerance):
        self.checks.append(CheckRecord(name, float(residual), float(tolerance),
                                       float(residual) <= float(tolerance)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_homogeneity(metric, samples, tolerance=1e-10) -> ValidationReport:
    """Check F(x, ty) = t F(x, y) for t > 0 over the given samples.

    samples: iterable of (x, y, t). The recorded residual is the worst
    relative defect |F(x, ty) - t F(x, y)| / F(x, y).
    """
    tolerance = positive_finite(tolerance, "the homogeneity tolerance")
    residuals = []
    for x, y, t in samples:
        if t <= 0:
            raise DomainError("homogeneity factors must be positive")
        base = metric.norm(x, y)
        scaled = metric.norm(x, np.asarray(y, dtype=float) * t)
        residuals.append(abs(scaled - t * base) / base)
    report = ValidationReport()
    report.add("positive-homogeneity", max(residuals, default=0.0), tolerance)
    return report


def validate_strong_convexity(metric, samples) -> ValidationReport:
    """Check positive-definiteness of the fundamental tensor over samples.

    samples: iterable of (x, y). Records the worst value of -lambda_min, so
    the check passes exactly when every sampled tensor is positive-definite.
    A numeric Hessian whose one-sided mixed differences disagree beyond 1e-5
    (relative to the tensor's scale) raises AccuracyError.
    """
    from .diffengine import fundamental_tensor

    eigs = []
    for x, y in samples:
        g = fundamental_tensor(metric, x, y)
        if metric.metric_tensor(np.asarray(x, float), np.asarray(y, float)) is None:
            _check_hessian_symmetry(metric, x, y, g)
        eigs.append(float(np.linalg.eigvalsh(g)[0]))
    report = ValidationReport()
    report.add("strong-convexity", max((-e for e in eigs), default=-1.0), 0.0)
    return report


def _check_hessian_symmetry(metric, x, y, g):
    # independent nested one-sided route for the off-diagonal entries
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = metric.dimension
    h = 1e-4 * max(1.0, float(np.abs(y).max()))

    def energy(yy):
        return 0.5 * metric.norm(x, yy) ** 2

    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h

            def d_i(yy):
                return (energy(yy + ei) - energy(yy - ei)) / (2 * h)

            gij = (d_i(y + ej) - d_i(y - ej)) / (2 * h)
            worst = max(worst, abs(gij - g[i, j]))
    scale = 1.0 + float(np.abs(g).max())
    if worst > 1e-5 * scale:
        raise AccuracyError(
            f"numeric Hessian asymmetry {worst:.3e} exceeds 1.0e-05 x scale",
            achieved=worst)


# ======================================================================
# Arc length
# ======================================================================

class SampledCurve:
    """Spline interpolant of a sampled path, exposing position and velocity."""

    def __init__(self, ts, points):
        ts = np.asarray(ts, dtype=float)
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        k = min(5, len(ts) - 1)
        self._spline = interpolate.make_interp_spline(ts, points, k=k)
        self._deriv = self._spline.derivative()
        self.t_min = float(ts[0])
        self.t_max = float(ts[-1])

    def position(self, t):
        return np.atleast_1d(self._spline(t))

    def velocity(self, t):
        return np.atleast_1d(self._deriv(t))


def arc_length(metric, curve, t0, t1) -> float:
    """Finsler length of the curve between parameters t0 and t1.

    curve: any object with position(t) and velocity(t), such as a
    GeodesicSegment or a SampledCurve. Adaptive quadrature of
    F(gamma(t), gamma'(t)); nonnegative for t1 >= t0. Quadrature
    non-convergence raises AccuracyError carrying the estimate.
    """
    def integrand(t):
        v = curve.velocity(t)
        if not np.any(v != 0.0):
            return 0.0
        return metric.norm(curve.position(t), v)

    value, abserr, info, *rest = integrate.quad(
        integrand, t0, t1, epsabs=1e-12, epsrel=1e-10, limit=200, full_output=True)
    if rest:
        raise AccuracyError(
            f"arc-length quadrature did not converge: {rest[0]} (estimate {value!r})",
            achieved=value)
    return float(value)
