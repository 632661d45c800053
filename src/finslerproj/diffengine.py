"""Derivatives on the slit tangent bundle: Taylor jets, second-order forward
mode, the y-Hessian of F^2/2 and a first-derivative stencil.

`Jet` is a truncated Taylor series in one variable. `Dual2` carries a value,
its gradient and chosen Hessian rows through plain arithmetic, exact up to
roundoff (Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008), N
points of a batch at once where the value is an (N,) array; `jet_where`
selects per point where a closed form branches.

`fundamental_tensor` is the one Hessian the geometry is built from,
g_ij = (F^2/2)_{y^i y^j}. An analytic provider on the metric answers first;
otherwise one second-order pass differentiates a jet-safe norm, and central
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

    ``coef[k]`` holds the k-th Taylor coefficient f^(k)/k!. The Schwarzian
    takes third derivatives through it, and the acceptance suite a gradient
    identity of the Funk domain.
    """

    __slots__ = ("coef",)
    __array_ufunc__ = None  # refuse numpy ufunc absorption; use reflected ops

    def __init__(self, coef):
        self.coef = list(coef)

    @classmethod
    def variable(cls, value, order):
        if order < 1:
            raise ConstructionError("jet order must be at least 1")
        return cls([value, 1.0] + [0.0] * (order - 1))

    @property
    def order(self):
        return len(self.coef) - 1

    def __repr__(self):
        return f"Jet(coef={self.coef})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            m = max(len(self.coef), len(other.coef))
            return Jet([_at(self.coef, k) + _at(other.coef, k) for k in range(m)])
        c = list(self.coef)
        c[0] = c[0] + other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-ck for ck in self.coef])

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            m = max(len(self.coef), len(other.coef))
            out = []
            for k in range(m):
                acc = 0.0
                for j in range(k + 1):
                    a = _at(self.coef, j)
                    b = _at(other.coef, k - j)
                    if a == 0.0 or b == 0.0:
                        continue
                    acc = acc + a * b
                out.append(acc)
            return Jet(out)
        return Jet([ck * other for ck in self.coef])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet([ck / other for ck in self.coef])

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        r0 = 1.0 / self.coef[0]
        out = [r0]
        for k in range(1, len(self.coef)):
            acc = 0.0
            for j in range(k):
                acc = acc + out[j] * _at(self.coef, k - j)
            out.append(-(acc * r0))
        return Jet(out)

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p == 0:
                return Jet([1.0] + [0.0] * self.order)
            if p < 0:
                return self._reciprocal() ** (-p)
            out = self
            for _ in range(p - 1):
                out = out * self
            return out
        return (self.log() * p).exp()

    # -- elementary functions (recurrences over the coefficients) --------

    def sqrt(self):
        s0 = math.sqrt(self.coef[0])
        out = [s0]
        inv2s0 = 0.5 / s0
        for k in range(1, len(self.coef)):
            acc = 0.0
            for j in range(1, k):
                acc = acc + out[j] * out[k - j]
            out.append((_at(self.coef, k) - acc) * inv2s0)
        return Jet(out)

    def exp(self):
        e0 = math.exp(self.coef[0])
        out = [e0]
        for k in range(1, len(self.coef)):
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + (j * _at(self.coef, j)) * out[k - j]
            out.append(acc * (1.0 / k))
        return Jet(out)

    def log(self):
        u0 = self.coef[0]
        l0 = math.log(u0)
        inv_u0 = 1.0 / u0
        out = [l0]
        for k in range(1, len(self.coef)):
            acc = 0.0
            for j in range(1, k):
                acc = acc + (j * out[j]) * _at(self.coef, k - j)
            out.append((_at(self.coef, k) - acc * (1.0 / k)) * inv_u0)
        return Jet(out)

    def _sin_cos(self, hyperbolic=False):
        """(sin, cos) of the series, or (sinh, cosh) when hyperbolic."""
        s = [(math.sinh if hyperbolic else math.sin)(self.coef[0])]
        c = [(math.cosh if hyperbolic else math.cos)(self.coef[0])]
        for k in range(1, len(self.coef)):
            sacc = 0.0
            cacc = 0.0
            for j in range(1, k + 1):
                uj = j * _at(self.coef, j)
                sacc = sacc + uj * c[k - j]
                cacc = cacc + uj * s[k - j]
            s.append(sacc * (1.0 / k))
            c.append(cacc * (1.0 / k) if hyperbolic else -(cacc * (1.0 / k)))
        return Jet(s), Jet(c)

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


# ======================================================================
# second-order forward mode
# ======================================================================

class Dual2:
    """A value with its gradient and some rows of its Hessian in V variables.

    `val` is a float, or an (N,) array whose entries are N independent
    points of a batch; `grad` has shape (V,) + val's shape, and `hess`
    (R, V) + val's shape holds the Hessian rows of the first R variables
    only, hess[r, v] = d^2 f / dz^r dz^v. The batch axis comes last, so a
    value broadcasts against its derivatives. Every operation is elementwise
    over the batch and in the same order for each point, so a batch of N
    gives the bits of N batches of one.
    """

    __slots__ = ("val", "grad", "hess")
    __array_ufunc__ = None  # refuse numpy ufunc absorption; use reflected ops

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    @classmethod
    def variables(cls, values, rows):
        """The variables z^0 .. z^(V-1) at `values` (floats, or (N,) arrays),
        keeping the Hessian rows of the first `rows` of them."""
        V, batch = len(values), np.shape(values[0])
        eye = np.eye(V).reshape((V, V) + (1,) * len(batch))
        # read-only broadcast views, which take no memory; no operation writes in place
        zero = np.broadcast_to(0.0, (rows, V) + batch)
        return [cls(v, np.broadcast_to(e, (V,) + batch), zero) for v, e in zip(values, eye)]

    def constant(self, c):
        """c, a number or an array of val's shape, in the variables of self."""
        return Dual2(c, np.zeros_like(self.grad), np.zeros_like(self.hess))

    def _outer(self, u, w):
        """u_r w_v over the kept rows r of u: the symmetric Hessian terms."""
        return u[:len(self.hess), None] * w[None]

    def __add__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return Dual2(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Dual2):
            return Dual2(self.val * other, self.grad * other, self.hess * other)
        a, b = self, other
        return Dual2(a.val * b.val, a.val * b.grad + a.grad * b.val,
                     a.val * b.hess + self._outer(a.grad, b.grad) + self._outer(b.grad, a.grad)
                     + a.hess * b.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Dual2):
            return Dual2(self.val / other, self.grad / other, self.hess / other)
        # the quotient q = a / b from a = q b, differentiated once and twice
        b = other
        q = self.val / b.val
        grad = (self.grad - q * b.grad) / b.val
        return Dual2(q, grad, (self.hess - q * b.hess - self._outer(grad, b.grad)
                               - self._outer(b.grad, grad)) / b.val)

    def __rtruediv__(self, other):
        return self.constant(other) / self

    def __pow__(self, p):
        if not (isinstance(p, int) or (isinstance(p, float) and p.is_integer())):
            raise ConstructionError(f"second-order forward mode takes integer powers, got {p!r}")
        p = int(p)
        if p < 0:
            return (1.0 / self) ** (-p)
        out = self.constant(1.0) if p == 0 else self
        for _ in range(p - 1):
            out = out * self
        return out

    def sqrt(self):
        # s s = v, differentiated once and twice
        s = smooth_sqrt(self.val)
        grad = self.grad / (2.0 * s)
        return Dual2(s, grad, (0.5 * self.hess - self._outer(grad, grad)) / s)


def jet_value(v):
    """Primal value of a Jet or Dual2: a number, or the (N,) array of a batch."""
    if isinstance(v, Jet):
        return v.coef[0]
    return v.val if isinstance(v, Dual2) else v


def smooth_sqrt(v):
    if isinstance(v, float):
        return math.sqrt(v)
    return v.sqrt() if isinstance(v, (Jet, Dual2)) else np.sqrt(v)


def jet_where(cond, a, b):
    """Per-element select over a batch: `a` where the boolean (N,) array
    `cond` holds, `b` elsewhere; value and derivatives alike for a Dual2."""
    if isinstance(a, Dual2) or isinstance(b, Dual2):
        like = a if isinstance(a, Dual2) else b
        a, b = (v if isinstance(v, Dual2) else like.constant(v) for v in (a, b))
        return Dual2(np.where(cond, a.val, b.val), np.where(cond, a.grad, b.grad),
                     np.where(cond, a.hess, b.hess))
    return np.where(cond, a, b)


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

    Analytic providers on the metric take precedence; otherwise one
    second-order forward pass differentiates a jet-safe norm and central
    differences a black-box one. The numeric result is symmetrized exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    metric.check_line_element(x, y)
    analytic = metric.metric_tensor(x, y)
    if analytic is not None:
        g = np.asarray(analytic, dtype=float)
        return 0.5 * (g + g.T)
    n = metric.dimension
    if metric.supports_jets:  # one second-order pass over the variables y
        f = metric._norm_impl(list(x), Dual2.variables(y.tolist(), n))
        g = (0.5 * (f * f)).hess
    else:
        g = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                g[i, j] = g[j, i] = _energy_y_hessian_fd(metric, x, y, i, j)
    g = 0.5 * (g + g.T)
    if not np.all(np.isfinite(g)):
        raise ConvexityError("fundamental tensor is not finite")
    return g


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
