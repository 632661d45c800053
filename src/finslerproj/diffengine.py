"""Derivatives on the slit tangent bundle: Taylor jets, second-order forward
mode, and the stencils that differentiate black-box fields.

`Jet` is a truncated Taylor series in one variable. `Dual2` carries a value,
its gradient and chosen Hessian rows through plain arithmetic, exact up to
roundoff (Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008), N
points of a batch at once where the value is an (N,) array; `jet_where`
selects per point where a closed form branches.

`gradient_points` and `gradient_combine` (one 5-point stencil) take first
derivatives, and `hessian_points` and `hessian_combine` the one y-Hessian
stencil, of whole stacks at caller-given steps. `fundamental_tensor`, g_ij =
(F^2/2)_{y^i y^j} at y scaled into [1/2, 1), is the Hessian the geometry is
built from: an analytic provider answers first, then one second-order pass
over a closed-form norm, then the y-Hessian stencil over a black-box one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import unit_scaled
from .errors import AccuracyError, ConstructionError, ConvexityError


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


@functools.cache
def gradient_offsets(n):
    """Offsets, in steps of h, of the first-derivative stencil: -2, -1, +1, +2
    along each axis in turn, as a read-only (4 n, n) array."""
    O = np.kron(np.eye(n), np.array([[-2.0], [-1.0], [1.0], [2.0]]))
    O.flags.writeable = False
    return O


def gradient_points(V, h):
    """The points v + h o of gradient_offsets for every row v of the (P, n)
    stack V, steps h (P,): a (4 n P, n) stack, offset by offset, each over
    all P rows."""
    O = gradient_offsets(V.shape[1])
    return (V[None] + O[:, None, :] * h[None, :, None]).reshape(-1, V.shape[1])


def gradient_combine(F, h):
    """(P, ..., n) first derivatives, O(h^4), from the values F at
    gradient_points(V, h): exact on polynomials of degree 4. The result is
    C-contiguous, so later sums over it run in one fixed order."""
    F = F.reshape((-1, 4, len(h)) + F.shape[1:])
    h = h.reshape(h.shape + (1,) * (F.ndim - 3))
    d = (F[:, 0] - 8 * F[:, 1] + 8 * F[:, 2] - F[:, 3]) / (12 * h)
    return np.ascontiguousarray(np.moveaxis(d, 0, -1))


@functools.cache  # a tuple, so every caller shares one immutable layout
def hessian_offsets(n):
    """Integer offsets, in steps of h, of the y-Hessian stencil: the centre,
    +-1 and +-2 along each axis, and the four diagonal corners at scales 1
    and 2 of each coordinate plane; 1 + 4 n^2 in all."""
    offsets = [(0,) * n]
    for i in range(n):
        for k in (1, -1, 2, -2):
            offsets.append(tuple(k if m == i else 0 for m in range(n)))
        for j in range(i + 1, n):
            for k in (1, 2):
                for a, b in ((k, k), (-k, -k), (k, -k), (-k, k)):
                    offsets.append(tuple(a if m == i else (b if m == j else 0)
                                         for m in range(n)))
    return tuple(offsets)


def hessian_points(Y, h):
    """The points y + h o of hessian_offsets for every row y of the (N, n)
    stack Y, steps h (N,): an (N K, n) stack, row by row of Y."""
    O = np.array(hessian_offsets(Y.shape[1]), dtype=float)
    return (Y[:, None, :] + h[:, None, None] * O).reshape(-1, Y.shape[1])


def hessian_combine(W, h):
    """(N, n, n) Hessians, O(h^4), from the (N, K) values W at hessian_points,
    steps h (N,): exact on polynomials of degree 5. Each off-diagonal entry
    is the Richardson combination of its corner differences at h and 2h."""
    n = math.isqrt(W.shape[1] // 4)  # K = 1 + 4 n^2
    col = {o: k for k, o in enumerate(hessian_offsets(n))}
    r = lambda *pairs: W[:, col[tuple(dict(pairs).get(m, 0) for m in range(n))]]
    H = np.empty((len(W), n, n))
    with np.errstate(all="ignore"):  # inf and nan pass silently, as on Python floats
        for i in range(n):
            H[:, i, i] = (-r((i, 2)) + 16 * r((i, 1)) - 30 * W[:, 0] + 16 * r((i, -1))
                          - r((i, -2))) / (12 * h * h)
            for j in range(i + 1, n):
                c1, c2 = ((r((i, s), (j, s)) + r((i, -s), (j, -s)) - r((i, s), (j, -s))
                           - r((i, -s), (j, s))) / (4.0 * (s * h) * (s * h))
                          for s in (1, 2))
                H[:, i, j] = H[:, j, i] = (4.0 * c1 - c2) / 3.0
    return H


# ======================================================================
# fundamental tensor
# ======================================================================

# the black-box route's y-step relative to max|y|, and the largest relative
# disagreement accepted between its estimates at that step and at half of it
ENERGY_STEP = 4e-3
MAX_RELATIVE_ERROR = 1e-4


def fundamental_tensor(metric, x, y) -> np.ndarray:
    """Hessian of F^2/2 in y, the fundamental tensor g_ij(x, y), at y scaled
    into [1/2, 1) (g is 0-homogeneous).

    Analytic providers on the metric take precedence; otherwise one
    second-order forward pass differentiates a closed-form norm, and the
    y-Hessian stencil at steps h and h/2 a black-box one: the h/2 estimate,
    or AccuracyError where the two differ by over MAX_RELATIVE_ERROR. The
    numeric result is symmetrized exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    metric.check_line_element(x, y)
    y = unit_scaled(y)[0]
    analytic = metric.metric_tensor(x, y)
    if analytic is not None:
        g = np.asarray(analytic, dtype=float)
        return 0.5 * (g + g.T)
    n = metric.dimension
    if metric.closed_form:  # one second-order pass over the variables y
        f = metric._norm_impl(list(x), Dual2.variables(y.tolist(), n))
        g = (0.5 * (f * f)).hess
    else:
        h = ENERGY_STEP * np.abs(y).max() * np.array([1.0, 0.5])
        E = [0.5 * f * f for f in (metric.norm(x, v) for v in hessian_points(np.stack([y, y]), h))]
        coarse, g = hessian_combine(np.reshape(E, (2, -1)), h)
        err = np.abs(g - coarse)
        if np.any(err > MAX_RELATIVE_ERROR * np.maximum(np.abs(g), 1.0)):
            raise AccuracyError(
                f"y-Hessian estimates at steps h and h/2 disagree by {err.max():.3e} "
                f"(limit {MAX_RELATIVE_ERROR:.1e} relative)", achieved=float(err.max()))
    g = 0.5 * (g + g.T)
    if not np.all(np.isfinite(g)):
        raise ConvexityError("fundamental tensor is not finite")
    return g
