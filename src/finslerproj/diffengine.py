"""Derivatives on the slit tangent bundle: Taylor jets, the y-Hessian of
F^2/2 and a first-derivative stencil.

`Jet` is a truncated Taylor series whose coefficients may be jets of a
lower nesting level, so arithmetic on plain expressions carries exact mixed
partials up to roundoff; the curvature module nests it directly. The
innermost coefficients are floats or (N,) numpy arrays: an array carries N
independent expansions through one pass of the same arithmetic, elementwise
and in the same order as N scalar passes, and `jet_where` selects between two
jets per element where a closed form branches.

`fundamental_tensor` is the one Hessian the geometry is built from,
g_ij = (F^2/2)_{y^i y^j}. An analytic provider on the metric answers first;
otherwise nested jets differentiate a jet-safe norm, and central
differences with Richardson extrapolation a black-box one.

`d1_points` and `d1_combine`, the points and weights of one 5-point stencil,
differentiate black-box fields, at one point (`central_d1`) or whole stacks.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import AccuracyError, ConstructionError, ConvexityError

_EPS = float(np.finfo(float).eps)


# ======================================================================
# Taylor jets
# ======================================================================

class Jet:
    """Truncated Taylor series in a single variable.

    ``coef[k]`` holds the k-th Taylor coefficient f^(k)/k!. Coefficients may
    themselves be jets of a lower nesting level; that is how mixed partials
    propagate. Arithmetic between different levels treats the lower level as
    a scalar coefficient, so independent variables never convolve. At the
    innermost level a coefficient is a float or an (N,) array, the batch of
    N expansions evaluated together.
    """

    __slots__ = ("coef", "level")
    __array_ufunc__ = None  # refuse numpy ufunc absorption; use reflected ops

    def __init__(self, coef, level=1):
        self.coef = list(coef)
        self.level = level

    @classmethod
    def variable(cls, value, order, level=1):
        if order < 1:
            raise ConstructionError("jet order must be at least 1")
        return cls([value, 1.0] + [0.0] * (order - 1), level)

    @property
    def order(self):
        return len(self.coef) - 1

    def __repr__(self):
        return f"Jet(level={self.level}, coef={self.coef})"

    # -- helpers -------------------------------------------------------

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
            out.append(-(acc * r0))
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
        inv2s0 = 0.5 / s0  # a jet s0 answers with its reciprocal times 0.5
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

    def _sin_cos(self, hyperbolic=False):
        """(sin, cos) of the series, or (sinh, cosh) when hyperbolic."""
        s = [_lift("sinh" if hyperbolic else "sin", self.coef[0])]
        c = [_lift("cosh" if hyperbolic else "cos", self.coef[0])]
        for k in range(1, len(self.coef)):
            sacc = 0.0
            cacc = 0.0
            for j in range(1, k + 1):
                uj = j * _at(self.coef, j)
                sacc = sacc + uj * c[k - j]
                cacc = cacc + uj * s[k - j]
            s.append(sacc * (1.0 / k))
            c.append(cacc * (1.0 / k) if hyperbolic else -(cacc * (1.0 / k)))
        return Jet(s, self.level), Jet(c, self.level)

    def sin(self):
        return self._sin_cos()[0]

    def cos(self):
        return self._sin_cos()[1]

    def tan(self):
        s, c = self._sin_cos()
        return s / c

    def sinh(self):
        return self._sin_cos(hyperbolic=True)[0]

    def cosh(self):
        return self._sin_cos(hyperbolic=True)[1]

    def tanh(self):
        s, c = self._sin_cos(hyperbolic=True)
        return s / c

    def derivative(self, order):
        """order-th derivative value (coefficient times order!)."""
        c = _at(self.coef, order)
        return c * math.factorial(order) if order > 1 else c


def _at(coef, k):
    return coef[k] if k < len(coef) else 0.0


def _is_zero(v):
    # only a scalar zero is skipped; an array coefficient is always multiplied
    return isinstance(v, float) and v == 0.0


def _lift(name, v):
    if isinstance(v, Jet):
        return getattr(v, name)()
    if isinstance(v, np.ndarray):
        return getattr(np, name)(v)
    return getattr(math, name)(v)


def jet_value(v):
    """Primal (zeroth order) value underneath any jet nesting: a number, or
    the (N,) array of a batch."""
    while isinstance(v, Jet):
        v = v.coef[0]
    return v


def smooth_sqrt(v):
    if isinstance(v, float):
        return math.sqrt(v)
    return v.sqrt() if isinstance(v, Jet) else np.sqrt(v)


def jet_where(cond, a, b):
    """Per-element select between two jets of a batch: `a` where the boolean
    (N,) array `cond` holds, `b` elsewhere, coefficient by coefficient."""
    if isinstance(a, Jet) or isinstance(b, Jet):
        level = max(v.level for v in (a, b) if isinstance(v, Jet))
        ca = a.coef if isinstance(a, Jet) and a.level == level else [a]
        cb = b.coef if isinstance(b, Jet) and b.level == level else [b]
        return Jet([jet_where(cond, _at(ca, k), _at(cb, k))
                    for k in range(max(len(ca), len(cb)))], level)
    return np.where(cond, a, b)


def extract_coefficient(value, level, order):
    """Taylor coefficient of `value` for the variable at the given level."""
    if not isinstance(value, Jet) or value.level < level:
        return value if order == 0 else 0.0
    if value.level > level:
        raise ConstructionError("extract levels from the highest down")
    return _at(value.coef, order)


def d1_points(v, i, h):
    """v - 2e, v - e, v + e, v + 2e with e = h along coordinate i, for one point
    v and a float h, or an (N, n) stack v and (N,) steps h."""
    e = np.zeros(np.shape(v))
    e[..., i] = h
    return v - 2 * e, v - e, v + e, v + 2 * e


def d1_combine(values, h):
    """O(h^4) first derivative from the values at the four d1_points."""
    fm2, fm1, fp1, fp2 = values
    return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)


def central_d1(fn, v, i, h):
    """5-point O(h^4) central first derivative of fn (scalar- or array-valued)
    along coordinate i of v; the one stencil of the spray and curvature routes."""
    return d1_combine([np.asarray(fn(p)) for p in d1_points(v, i, h)], h)


# ======================================================================
# fundamental tensor
# ======================================================================

# Richardson halvings of the finite-difference step, and the largest relative
# disagreement accepted between the last two levels
RICHARDSON_LEVELS = 2
MAX_RELATIVE_ERROR = 1e-4

# central stencils (offset, weight) of the first and second derivative, with
# error series in even powers of h
_D1 = ((-1, -0.5), (1, 0.5))
_D2 = ((-1, 1.0), (0, -2.0), (1, 1.0))


def fundamental_tensor(metric, x, y) -> np.ndarray:
    """Hessian of F^2/2 in y, the fundamental tensor g_ij(x, y).

    Analytic providers on the metric take precedence; otherwise nested
    Taylor jets differentiate a jet-safe norm and central differences a
    black-box one. The numeric result is symmetrized exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    metric.check_line_element(x, y)
    analytic = metric.metric_tensor(x, y)
    if analytic is not None:
        g = np.asarray(analytic, dtype=float)
        return 0.5 * (g + g.T)
    n = metric.dimension
    entry = _energy_y_hessian_jets if metric.supports_jets else _energy_y_hessian_fd
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = entry(metric, x, y, i, j)
    g = 0.5 * (g + g.T)
    if not np.all(np.isfinite(g)):
        raise ConvexityError("fundamental tensor is not finite")
    return g


def _energy_y_hessian_jets(metric, x, y, i, j):
    """d^2(F^2/2)/dy^i dy^j by nested Taylor jets, exact up to roundoff:
    one order-2 variable on the diagonal, two order-1 levels off it."""
    ys = list(y)
    if i == j:
        ys[i] = Jet.variable(ys[i], 2)
    else:
        ys[i] = Jet.variable(ys[i], 1, level=1)
        ys[j] = Jet.variable(ys[j], 1, level=2)
    f = metric._norm_impl(list(x), ys)
    energy = 0.5 * (f * f)
    if i == j:
        return float(extract_coefficient(energy, 1, 2) * 2)
    return float(extract_coefficient(extract_coefficient(energy, 2, 1), 1, 1))


def _energy_y_hessian_fd(metric, x, y, i, j):
    """d^2(F^2/2)/dy^i dy^j by central differences on the norm, with
    Richardson extrapolation over halved steps.

    Raises AccuracyError when the last two Richardson levels disagree by
    more than MAX_RELATIVE_ERROR.
    """
    def energy(v):
        f = metric.norm(x, v)
        return 0.5 * f * f

    # base step eps^(1/4), the optimum for a second derivative, widened for
    # the halvings
    base = _EPS ** 0.25 * 2.0 * 4.0 ** RICHARDSON_LEVELS
    axes = [(i, _D2, 2)] if i == j else [(i, _D1, 1), (j, _D1, 1)]

    def estimate(shrink):
        stencil_axes = []
        for k, stencil, order in axes:
            h = base * max(1.0, abs(y[k])) / shrink
            stencil_axes.append([(k, off * h, w / h ** order) for off, w in stencil])
        acc = 0.0
        for combo in product(*stencil_axes):
            v = y.copy()
            w = 1.0
            for k, dh, wk in combo:
                v[k] += dh
                w *= wk
            acc += w * float(energy(v))
        return acc

    table = [[estimate(2.0 ** m) for m in range(RICHARDSON_LEVELS + 1)]]
    for m in range(1, RICHARDSON_LEVELS + 1):
        prev = table[-1]
        fac = 4.0 ** m
        table.append([(fac * prev[k + 1] - prev[k]) / (fac - 1.0)
                      for k in range(len(prev) - 1)])
    value = table[-1][0]
    err = abs(value - table[-2][0])
    if err > MAX_RELATIVE_ERROR * max(abs(value), 1.0):
        raise AccuracyError(
            f"Richardson levels disagree by {err:.3e} "
            f"(limit {MAX_RELATIVE_ERROR:.1e} relative)", achieved=err)
    return float(value)
