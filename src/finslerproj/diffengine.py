"""Derivatives of scalar fields on the slit tangent bundle.

Two backends:

* truncated-Taylor forward propagation (`Jet`) for fields written as plain
  arithmetic expressions, exact up to roundoff;
* central finite differences with joint Richardson extrapolation for
  black-box callables.

Everything downstream (fundamental tensor, sprays, Ricci formulas) reduces to
mixed partials of order at most 2 in x and 3 in y of such fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .errors import AccuracyError, ConvexityError

_EPS = float(np.finfo(float).eps)

MAX_X_ORDER = 2
MAX_Y_ORDER = 3
MAX_TOTAL_ORDER = 5


# ======================================================================
# Taylor jets
# ======================================================================

class Jet:
    """Truncated Taylor series in a single variable.

    ``coef[k]`` holds the k-th Taylor coefficient f^(k)/k!. Coefficients may
    themselves be jets of a lower nesting level; that is how mixed partials
    propagate. Arithmetic between different levels treats the lower level as
    a scalar coefficient, so independent variables never convolve.
    """

    __slots__ = ("coef", "level")
    __array_ufunc__ = None  # refuse numpy ufunc absorption; use reflected ops

    def __init__(self, coef, level=1):
        self.coef = list(coef)
        self.level = level

    @classmethod
    def variable(cls, value, order, level=1):
        if order < 1:
            raise ValueError("jet order must be at least 1")
        return cls([value, 1.0] + [0.0] * (order - 1), level)

    @property
    def order(self):
        return len(self.coef) - 1

    def __repr__(self):
        return f"Jet(level={self.level}, coef={self.coef})"

    # -- helpers -------------------------------------------------------

    def _is_scalar(self, other):
        return not isinstance(other, Jet) or other.level < self.level

    def _same(self, other):
        return isinstance(other, Jet) and other.level == self.level

    # -- ring operations ------------------------------------------------

    # Cross-level arithmetic is resolved explicitly: Python will not call the
    # reflected method when both operands share a class, so the higher level
    # always absorbs the lower one as a scalar coefficient.

    def __add__(self, other):
        if isinstance(other, Jet) and other.level > self.level:
            return other.__add__(self)
        if self._same(other):
            m = max(len(self.coef), len(other.coef))
            return Jet([_at(self.coef, k) + _at(other.coef, k) for k in range(m)], self.level)
        c = list(self.coef)
        c[0] = c[0] + other
        return Jet(c, self.level)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-ck for ck in self.coef], self.level)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet) and other.level > self.level:
            return other.__mul__(self)
        if self._same(other):
            m = max(len(self.coef), len(other.coef))
            out = []
            for k in range(m):
                acc = 0.0
                for j in range(k + 1):
                    a = _at(self.coef, j)
                    b = _at(other.coef, k - j)
                    if _is_zero(a) or _is_zero(b):
                        continue
                    acc = acc + a * b
                out.append(acc)
            return Jet(out, self.level)
        return Jet([ck * other for ck in self.coef], self.level)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet) and other.level > self.level:
            return other._reciprocal().__mul__(self)
        if self._same(other):
            return self * other._reciprocal()
        return Jet([ck / other for ck in self.coef], self.level)

    def __rtruediv__(self, other):
        # other is a scalar or a lower-level jet
        return self._reciprocal() * other

    def _reciprocal(self):
        b0 = self.coef[0]
        r0 = 1.0 / b0 if not isinstance(b0, Jet) else b0._reciprocal()
        out = [r0]
        for k in range(1, len(self.coef)):
            acc = 0.0
            for j in range(k):
                acc = acc + out[j] * _at(self.coef, k - j)
            out.append(-(acc * r0) if not isinstance(r0, Jet) else -(acc * r0))
        return Jet(out, self.level)

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p == 0:
                return Jet([1.0] + [0.0] * self.order, self.level)
            if p < 0:
                return self._reciprocal() ** (-p)
            out = self
            for _ in range(p - 1):
                out = out * self
            return out
        return (self.log() * p).exp()

    # -- elementary functions (recurrences over the coefficient ring) ----

    def sqrt(self):
        s0 = _lift("sqrt", self.coef[0])
        out = [s0]
        inv2s0 = 0.5 / s0 if not isinstance(s0, Jet) else s0._reciprocal() * 0.5
        for k in range(1, len(self.coef)):
            acc = 0.0
            for j in range(1, k):
                acc = acc + out[j] * out[k - j]
            out.append((_at(self.coef, k) - acc) * inv2s0)
        return Jet(out, self.level)

    def exp(self):
        e0 = _lift("exp", self.coef[0])
        out = [e0]
        for k in range(1, len(self.coef)):
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + (j * _at(self.coef, j)) * out[k - j]
            out.append(acc * (1.0 / k))
        return Jet(out, self.level)

    def log(self):
        u0 = self.coef[0]
        l0 = _lift("log", u0)
        inv_u0 = 1.0 / u0 if not isinstance(u0, Jet) else u0._reciprocal()
        out = [l0]
        for k in range(1, len(self.coef)):
            acc = 0.0
            for j in range(1, k):
                acc = acc + (j * out[j]) * _at(self.coef, k - j)
            out.append((_at(self.coef, k) - acc * (1.0 / k)) * inv_u0)
        return Jet(out, self.level)

    def _sin_cos(self):
        s0 = _lift("sin", self.coef[0])
        c0 = _lift("cos", self.coef[0])
        s, c = [s0], [c0]
        for k in range(1, len(self.coef)):
            sacc = 0.0
            cacc = 0.0
            for j in range(1, k + 1):
                uj = j * _at(self.coef, j)
                sacc = sacc + uj * c[k - j]
                cacc = cacc + uj * s[k - j]
            s.append(sacc * (1.0 / k))
            c.append(-(cacc * (1.0 / k)))
        return Jet(s, self.level), Jet(c, self.level)

    def _sinh_cosh(self):
        s0 = _lift("sinh", self.coef[0])
        c0 = _lift("cosh", self.coef[0])
        s, c = [s0], [c0]
        for k in range(1, len(self.coef)):
            sacc = 0.0
            cacc = 0.0
            for j in range(1, k + 1):
                uj = j * _at(self.coef, j)
                sacc = sacc + uj * c[k - j]
                cacc = cacc + uj * s[k - j]
            s.append(sacc * (1.0 / k))
            c.append(cacc * (1.0 / k))
        return Jet(s, self.level), Jet(c, self.level)

    def sin(self):
        return self._sin_cos()[0]

    def cos(self):
        return self._sin_cos()[1]

    def tan(self):
        s, c = self._sin_cos()
        return s / c

    def sinh(self):
        return self._sinh_cosh()[0]

    def cosh(self):
        return self._sinh_cosh()[1]

    def tanh(self):
        s, c = self._sinh_cosh()
        return s / c

    def derivative(self, order):
        """order-th derivative value (coefficient times order!)."""
        c = _at(self.coef, order)
        return c * math.factorial(order) if order > 1 else c


def _at(coef, k):
    return coef[k] if k < len(coef) else 0.0


def _is_zero(v):
    return not isinstance(v, Jet) and v == 0.0


def _lift(name, v):
    if isinstance(v, Jet):
        return getattr(v, name)()
    return getattr(math, name)(v)


def jet_value(v):
    """Primal (zeroth order) value underneath any jet nesting."""
    while isinstance(v, Jet):
        v = v.coef[0]
    return float(v)


def smooth_sqrt(v):
    return v.sqrt() if isinstance(v, Jet) else math.sqrt(v)


def smooth_log(v):
    return v.log() if isinstance(v, Jet) else math.log(v)


def smooth_exp(v):
    return v.exp() if isinstance(v, Jet) else math.exp(v)


def extract_coefficient(value, level, order):
    """Taylor coefficient of `value` for the variable at the given level."""
    if not isinstance(value, Jet) or value.level < level:
        return value if order == 0 else 0.0
    if value.level > level:
        raise ValueError("extract levels from the highest down")
    return _at(value.coef, order)


# ======================================================================
# Requests and configuration
# ======================================================================

@dataclass(frozen=True)
class DerivativeRequest:
    """A mixed-partial request for a scalar field f(x, y).

    x_orders and y_orders are multi-indices; the total x order is capped at
    2, y at 3, combined at 5, which covers every curvature formula used here.
    """

    field: Callable
    x_orders: tuple
    y_orders: tuple
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_orders", tuple(int(o) for o in self.x_orders))
        object.__setattr__(self, "y_orders", tuple(int(o) for o in self.y_orders))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if len(self.x_orders) != self.x.size or len(self.y_orders) != self.y.size:
            raise ValueError("multi-index length must match the point dimension")
        if any(o < 0 for o in self.x_orders + self.y_orders):
            raise ValueError("derivative orders must be nonnegative")
        if sum(self.x_orders) > MAX_X_ORDER:
            raise ValueError(f"total x order limited to {MAX_X_ORDER}")
        if sum(self.y_orders) > MAX_Y_ORDER:
            raise ValueError(f"total y order limited to {MAX_Y_ORDER}")
        if sum(self.x_orders) + sum(self.y_orders) > MAX_TOTAL_ORDER:
            raise ValueError(f"combined order limited to {MAX_TOTAL_ORDER}")


@dataclass(frozen=True)
class EngineConfig:
    """Differentiation backend selection."""

    mode: str = "automatic-forward"

    def __post_init__(self):
        if self.mode not in ("automatic-forward", "finite-difference"):
            raise ValueError(f"unknown mode {self.mode!r}")


DEFAULT_CONFIG = EngineConfig()
FD_CONFIG = EngineConfig(mode="finite-difference")


# ======================================================================
# partial
# ======================================================================

def partial(req: DerivativeRequest, cfg: EngineConfig = DEFAULT_CONFIG) -> float:
    """Mixed partial of req.field at (req.x, req.y)."""
    if cfg.mode == "automatic-forward":
        return _partial_jets(req)
    return _partial_fd(req)


def _partial_jets(req):
    xs = list(req.x.astype(float))
    ys = list(req.y.astype(float))
    levels = []  # (level, order) in creation order
    level = 0
    for i, o in enumerate(req.x_orders):
        if o > 0:
            level += 1
            xs[i] = Jet.variable(xs[i], o, level)
            levels.append((level, o))
    for i, o in enumerate(req.y_orders):
        if o > 0:
            level += 1
            ys[i] = Jet.variable(ys[i], o, level)
            levels.append((level, o))
    value = req.field(xs, ys)
    for lev, o in sorted(levels, reverse=True):
        value = extract_coefficient(value, lev, o)
        value = value * math.factorial(o) if o > 1 else value
    if isinstance(value, Jet):
        raise AccuracyError("jet extraction left residual nesting levels")
    return float(value)


# Richardson halvings of the finite-difference step, and the largest relative
# disagreement accepted between the last two levels
RICHARDSON_LEVELS = 2
MAX_RELATIVE_ERROR = 1e-4

# minimal central stencils, error series in even powers of h
_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _default_step(total_order):
    """Order-adapted base step, before scaling by the coordinate magnitude."""
    return _EPS ** (1.0 / (total_order + 2)) * 2.0 * 4.0 ** RICHARDSON_LEVELS


def _partial_fd(req):
    orders = list(req.x_orders) + list(req.y_orders)
    nx = req.x.size
    total = sum(orders)
    if total == 0:
        return float(req.field(req.x.copy(), req.y.copy()))
    base = _default_step(total)
    point = np.concatenate([req.x, req.y])
    active = [i for i, o in enumerate(orders) if o > 0]
    steps = {i: base * max(1.0, abs(point[i])) for i in active}

    def tensor_estimate(shrink):
        stencil_axes = []
        for i in active:
            h = steps[i] / shrink
            stencil_axes.append([(i, off * h, w / h ** orders[i])
                                 for off, w in _STENCILS[orders[i]]])
        acc = 0.0
        for combo in product(*stencil_axes):
            z = point.copy()
            w = 1.0
            for i, dh, wi in combo:
                z[i] += dh
                w *= wi
            acc += w * float(req.field(z[:nx], z[nx:]))
        return acc

    estimates = [tensor_estimate(2.0 ** j) for j in range(RICHARDSON_LEVELS + 1)]
    table = [estimates]
    for m in range(1, RICHARDSON_LEVELS + 1):
        prev = table[-1]
        fac = 4.0 ** m
        table.append([(fac * prev[j + 1] - prev[j]) / (fac - 1.0)
                      for j in range(len(prev) - 1)])
    value = table[-1][0]
    err = abs(value - table[-2][0])
    scale = max(abs(value), 1.0)
    if err > MAX_RELATIVE_ERROR * scale:
        raise AccuracyError(
            f"Richardson levels disagree by {err:.3e} "
            f"(limit {MAX_RELATIVE_ERROR:.1e} relative)", achieved=err)
    return float(value)


def central_d1(fn, v, i, h):
    """5-point O(h^4) central first derivative of fn (scalar- or array-valued)
    along coordinate i of v; the one stencil of the spray and curvature routes."""
    e = np.zeros(len(v))
    e[i] = h
    return (np.asarray(fn(v - 2 * e)) - 8 * np.asarray(fn(v - e))
            + 8 * np.asarray(fn(v + e)) - np.asarray(fn(v + 2 * e))) / (12 * h)


# ======================================================================
# fundamental tensor
# ======================================================================

def fundamental_tensor(metric, x, y, cfg: EngineConfig | None = None) -> np.ndarray:
    """Hessian of F^2/2 in y, the fundamental tensor g_ij(x, y).

    Analytic providers on the metric take precedence. The numeric result is
    checked for symmetry and then symmetrized exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    metric.check_line_element(x, y)
    analytic = metric.metric_tensor(x, y)
    if analytic is not None:
        g = np.asarray(analytic, dtype=float)
        return 0.5 * (g + g.T)
    if cfg is None:
        cfg = DEFAULT_CONFIG if metric.supports_jets else FD_CONFIG
    n = metric.dimension

    if cfg.mode == "automatic-forward":
        def energy(xs, ys):
            f = metric._norm_impl(xs, ys)
            return 0.5 * (f * f)
        field = energy
    else:
        def energy(xs, ys):
            f = metric.norm(xs, ys)
            return 0.5 * f * f
        field = energy

    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            yo = [0] * n
            yo[i] += 1
            yo[j] += 1
            req = DerivativeRequest(field, (0,) * n, tuple(yo), x, y)
            g[i, j] = partial(req, cfg)
            g[j, i] = g[i, j]
    g = 0.5 * (g + g.T)
    if not np.all(np.isfinite(g)):
        raise ConvexityError("fundamental tensor is not finite")
    return g
