"""Ricci scalar and tensor of the geodesic spray, the negative-Ricci-bound
checker, and the projective-factor machinery.

The Ricci scalar is built from the spray coefficients:

    2 F^2 Ric = 2 (G^i)_{x^i} - (G^i)_{y^j} (G^j)_{y^i} / 2
                - y^j (G^i)_{y^i x^j} + G^j (G^i)_{y^i y^j}

so it is 0-homogeneous in y and equals (n-1) times the flag curvature on
constant-curvature metrics. A jet-capable spray is differentiated by Taylor
jets whose coefficients are (N,) arrays, so a whole stack of line elements
costs one pass (`ricci_scalar_batch`); so does a black-box spray, by nested
stencils whose points all go to one `spray_batch` call. For a Riemannian
tensor without Christoffels the spray's x-data (the tensor and its
x-derivatives) does not depend on y: it is computed once per stencil point.

The Ricci tensor is the y-Hessian of F^2 Ric / 2, which keeps the
contraction identity Ric_ik l^i l^k = Ric automatic. `check_ricci_bound`
validates all its samples, evaluates F^2 Ric over every sample's offset
cloud in one batch, then assembles the samples in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import as_components, as_coords, boundary_room, positive_finite
from .diffengine import (Jet, central_d1, d1_combine, d1_points, extract_coefficient,
                         fundamental_tensor)
from .errors import AccuracyError, DomainError, NotProjectiveError
from .geodesics import spray_batch, spray_vector


# ======================================================================
# finite-difference steps (the stencil is diffengine.central_d1)
# ======================================================================

def _scale(v):
    return max(1.0, float(np.abs(v).max()))


def _yscale(y):
    # steps in y must follow the vector's own magnitude: unit-speed
    # velocities shrink toward domain boundaries and an absolute step would
    # reach past the cone tip where the spray is not smooth
    return float(np.abs(y).max())


def _x_steps(metric, x):
    """Boundary-aware (first-derivative, nested-derivative) steps in x."""
    dist = boundary_room(metric, x)
    if dist <= 1e-8:
        raise DomainError("curvature stencil cannot stay inside the domain; "
                          "the line element sits too close to the boundary")
    hx = min(1e-5 * _scale(x), dist / 10.0)
    Hx = min(1e-3 * _scale(x), dist / 10.0)
    return hx, Hx


def _ricci_scalar_jets(metric, X, Y, f2):
    """Exact spray derivatives by nested Taylor jets over (N,) coefficient
    arrays, all N line elements of the (N, n) stacks X, Y in one pass; no
    stencil room needed. f2 holds F^2 of each element."""
    n = metric.dimension
    N = len(X)
    impl = metric._spray_impl
    xs = list(np.ascontiguousarray(X.T))
    ys = list(np.ascontiguousarray(Y.T))

    def d_dx(j):
        xj = xs.copy()
        xj[j] = Jet.variable(xs[j], 1)
        return [extract_coefficient(gi, 1, 1) for gi in impl(xj, ys)]

    def d_dy(j):
        yj = ys.copy()
        yj[j] = Jet.variable(ys[j], 1)
        return [extract_coefficient(gi, 1, 1) for gi in impl(xs, yj)]

    # a spray part that does not depend on the variable comes back as a
    # Python 0.0; the slice assignments below broadcast it to (N,)
    tr_gx = sum(d_dx(i)[i] for i in range(n))
    gy = np.empty((N, n, n))  # gy[:, i, j] = dG^i/dy^j
    for j in range(n):
        for i, gij in enumerate(d_dy(j)):
            gy[:, i, j] = gij
    sx = np.empty((N, n))
    for j in range(n):
        xj = xs.copy()
        xj[j] = Jet.variable(xs[j], 1, level=2)
        acc = 0.0
        for i in range(n):
            yi = ys.copy()
            yi[i] = Jet.variable(ys[i], 1, level=1)
            gi = impl(xj, yi)[i]
            acc += extract_coefficient(extract_coefficient(gi, 2, 1), 1, 1)
        sx[:, j] = acc
    sy = np.empty((N, n))
    for j in range(n):
        acc = 0.0
        for i in range(n):
            yi = ys.copy()
            if i == j:
                yi[i] = Jet.variable(ys[i], 2)
                gi = impl(xs, yi)[i]
                acc += 2.0 * extract_coefficient(gi, 1, 2)
            else:
                yi[j] = Jet.variable(ys[j], 1, level=2)
                yi[i] = Jet.variable(ys[i], 1, level=1)
                gi = impl(xs, yi)[i]
                acc += extract_coefficient(extract_coefficient(gi, 2, 1), 1, 1)
        sy[:, j] = acc
    g0 = np.empty((N, n))
    for i, gi in enumerate(impl(xs, ys)):
        g0[:, i] = gi
    # stacked matmuls rather than elementwise sums: each element's products
    # then sum exactly as the 2-D trace and dot products of one element do
    rhs = (2.0 * tr_gx - 0.5 * np.trace(gy @ gy, axis1=1, axis2=2)
           - (Y[:, None, :] @ sx[:, :, None])[:, 0, 0]
           + (g0[:, None, :] @ sy[:, :, None])[:, 0, 0])
    return rhs / (2.0 * f2)


def _stencil(V, h):
    """d1_points of the (P, n) stack V, steps h (P,), along each axis in turn."""
    return np.concatenate([np.concatenate(d1_points(V, i, h)) for i in range(V.shape[1])])


def _tiled(V, n):
    """The (P, n) stack V repeated in the layout of _stencil."""
    return np.tile(V, (4 * n, 1))


def _derivatives(F, h):
    """(P, ..., n) derivatives from the values F at _stencil(V, h)'s points."""
    F = F.reshape((-1, 4, len(h)) + F.shape[1:])
    h = h.reshape(h.shape + (1,) * (F.ndim - 3))
    return np.stack([d1_combine(Fj, h) for Fj in F], axis=-1)


def _ricci_scalar_stencil(metric, X, Y, f2):
    """Ricci scalars of a black-box spray at the (N, n) stacks X, Y by nested
    central differences: every element's x-steps, then one spray_batch call."""
    n = metric.dimension
    if not len(X):
        return np.empty(0)
    hx, Hx = np.array([_x_steps(metric, x) for x in X], dtype=float).T
    hy, Hy = 1e-5 * np.abs(Y).max(axis=1), 1e-3 * np.abs(Y).max(axis=1)  # _yscale per row
    # points of the Sx and Sy stencils, where S(xx, yy) = sum_i dG^i/dy^i
    SX = np.concatenate([_stencil(X, Hx), _tiled(X, n)])
    SY = np.concatenate([_tiled(Y, n), _stencil(Y, Hy)])
    hS = 1e-4 * np.abs(SY).max(axis=1)
    XX = [X, _stencil(X, hx), _tiled(X, n), _tiled(SX, n)]
    YY = [Y, _tiled(Y, n), _stencil(Y, hy), _stencil(SY, hS)]
    G0, Gx, Gy, GS = np.split(spray_batch(metric, np.concatenate(XX), np.concatenate(YY)),
                              np.cumsum([len(v) for v in XX])[:-1])
    Gx, Gy, GS = _derivatives(Gx, hx), _derivatives(Gy, hy), _derivatives(GS, hS)
    S = sum(GS[:, i, i] for i in range(n))
    Sx, Sy = _derivatives(S[:len(SX) // 2], Hx), _derivatives(S[len(SX) // 2:], Hy)
    # stacked traces and matmuls, as in _ricci_scalar_jets
    rhs = (2.0 * np.trace(Gx, axis1=1, axis2=2) - 0.5 * np.trace(Gy @ Gy, axis1=1, axis2=2)
           - (Y[:, None, :] @ Sx[:, :, None])[:, 0, 0]
           + (G0[:, None, :] @ Sy[:, :, None])[:, 0, 0])
    return rhs / (2.0 * f2)


def _ricci_and_energy(metric, X, Y):
    """(Ric, F^2) of the line elements stacked in X, Y, as (N,) arrays: every
    element is validated by `norm_batch`, which also gives its F^2, then the
    spray's jets or its stencils answer for the whole stack in one pass."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    # each row runs at y 2^-e with max|y 2^-e| in [1/2, 1): Ric is 0-homogeneous, and
    # the scaling is exact, so Ric is the same float at every power-of-two scale of y
    e = np.frexp(np.abs(Y).max(axis=-1))[1]
    Y = np.ldexp(Y, -e[..., None])
    # squared one by one as Python floats, so F^2 has the bits of norm() ** 2 there
    f2 = np.array([f ** 2 if f < 1e154 else f * f for f in metric.norm_batch(X, Y).tolist()])
    route = _ricci_scalar_jets if metric.spray_supports_jets else _ricci_scalar_stencil
    ric = route(metric, X, Y, f2)
    with np.errstate(over="ignore"):  # F^2 at y itself may overflow where Ric does not
        return ric, np.ldexp(f2, 2 * e)


def ricci_scalar_batch(metric, X, Y) -> np.ndarray:
    """Ricci scalars of N line elements given as (N, n) stacks of points X
    and vectors Y; element k equals ricci_scalar(metric, X[k], Y[k])."""
    return _ricci_and_energy(metric, X, Y)[0]


def ricci_scalar(metric, x, y) -> float:
    """Ricci scalar at the line element (x, y); 0-homogeneous in y."""
    return float(ricci_scalar_batch(metric, [as_coords(x)], [as_components(y)])[0])


def weighted_ricci(metric, x, y) -> float:
    """F^2 Ric, the 2-homogeneous Ricci weight entering the parameter ODE."""
    return metric.norm(x, y) ** 2 * ricci_scalar(metric, x, y)


# ======================================================================
# Ricci tensor
# ======================================================================

@dataclass(frozen=True)
class CurvatureData:
    """Curvature quantities at one line element."""

    ric: float
    ric_tensor: np.ndarray
    ell: np.ndarray
    curvature_matrix: np.ndarray | None = None

    @property
    def contraction_residual(self) -> float:
        return abs(float(self.ell @ self.ric_tensor @ self.ell) - self.ric)


# ricci_tensor's y-step, relative to max|y|, and its contraction-residual limit
TENSOR_STEP = 0.05
CONTRACTION_LIMIT = 1e-3


def _tensor_offsets(n):
    """Integer offsets, in steps of h, at which ricci_tensor samples the
    weighted Ricci field: the centre, +-1 and +-2 along each axis, and the
    four diagonal corners at scales 1 and 2 of each coordinate plane."""
    offsets = [(0,) * n]
    for i in range(n):
        for k in (1, -1, 2, -2):
            offsets.append(tuple(k if m == i else 0 for m in range(n)))
        for j in range(i + 1, n):
            for k in (1, 2):
                for a, b in ((k, k), (-k, -k), (k, -k), (-k, k)):
                    offsets.append(tuple(a if m == i else (b if m == j else 0)
                                         for m in range(n)))
    return offsets


def _tensor_cloud(metric, x, y, step):
    """The validated (x, y), the y-step h and the offset cloud y + h o over
    the offsets o of _tensor_offsets, where ricci_tensor samples F^2 Ric."""
    x, y = metric.check_line_element(as_coords(x), as_components(y))
    h = step * _yscale(y)
    if not 0.0 < h * h < math.inf:  # the second differences divide by h^2
        raise DomainError(f"ricci_tensor's y-step {h!r} at y={y.tolist()} has no usable square")
    return x, y, h, y + h * np.array(_tensor_offsets(metric.dimension), dtype=float)


def _assemble_tensor(metric, x, y, h, weighted, contraction_limit) -> CurvatureData:
    """Ricci tensor at (x, y) from F^2 Ric on its cloud, differenced in y
    with O(h^4) stencils; raises AccuracyError on a contraction residual
    above contraction_limit."""
    n = metric.dimension
    weighted = dict(zip(_tensor_offsets(n), weighted))

    def r(offset):
        return weighted[tuple(offset)]

    zero = [0] * n
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            if i == j:
                o = lambda k: [k if m == i else 0 for m in range(n)]
                hess[i, i] = (-r(o(2)) + 16 * r(o(1)) - 30 * r(zero)
                              + 16 * r(o(-1)) - r(o(-2))) / (12 * h * h)
            else:
                def cross(scale):
                    o = lambda a, b: [a if m == i else (b if m == j else 0) for m in range(n)]
                    return (r(o(scale, scale)) + r(o(-scale, -scale))
                            - r(o(scale, -scale)) - r(o(-scale, scale))) / (4.0 * (scale * h) ** 2)
                c1, c2 = cross(1), cross(2)
                hess[i, j] = (4.0 * c1 - c2) / 3.0
                hess[j, i] = hess[i, j]
    ric_ij = 0.5 * (hess + hess.T) * 0.5  # symmetrize, then the 1/2 of the definition
    F = metric.norm(x, y)
    ric = r(zero) / F ** 2
    data = CurvatureData(ric=ric, ric_tensor=ric_ij, ell=y / F)
    if data.contraction_residual > contraction_limit * max(1.0, abs(ric)):
        raise AccuracyError(
            f"Ricci contraction identity residual {data.contraction_residual:.3e}",
            achieved=data.contraction_residual)
    return data


def _weighted_ricci(metric, clouds):
    """F^2 Ric over every cloud of `clouds` in one _ricci_and_energy call,
    as one list of values per cloud."""
    X = np.concatenate([np.broadcast_to(x, yy.shape) for x, _, _, yy in clouds])
    Y = np.concatenate([yy for *_, yy in clouds])
    ric, f2 = _ricci_and_energy(metric, X, Y)
    weighted = (f2 * ric).tolist()
    size = len(Y) // len(clouds)
    return [weighted[k * size:(k + 1) * size] for k in range(len(clouds))]


def _ricci_tensors(metric, samples, step, contraction_limit):
    """Ricci tensors of the line elements in `samples`, yielded in order.

    Every sample is validated and its cloud built before any curvature
    work; F^2 Ric over all clouds then costs one _ricci_and_energy call,
    and each sample is assembled (and may raise) only when it is reached.
    """
    clouds = [_tensor_cloud(metric, x, y, step) for x, y in samples]
    if not clouds:
        return
    try:
        weighted = _weighted_ricci(metric, clouds)
    except Exception:
        if len(clouds) == 1:
            raise
        # some sample's curvature work fails: redo it sample by sample, so
        # an earlier sample's AccuracyError still comes first and the
        # failing sample raises again when it is reached
        weighted = None
    for k, (x, y, h, _) in enumerate(clouds):
        w = weighted[k] if weighted is not None else _weighted_ricci(metric, clouds[k:k + 1])[0]
        yield _assemble_tensor(metric, x, y, h, w, contraction_limit)


def ricci_tensor(metric, x, y, step=TENSOR_STEP,
                 contraction_limit=CONTRACTION_LIMIT) -> CurvatureData:
    """Akbar-Zadeh Ricci tensor, the y-Hessian of F^2 Ric / 2.

    The weighted-Ricci field F^2 Ric, evaluated at all stencil offsets in
    one batch, is differenced in y with O(h^4) stencils.
    The contraction identity is enforced a posteriori; a residual above
    contraction_limit raises AccuracyError.
    """
    step = positive_finite(step, "the Ricci tensor step")
    contraction_limit = positive_finite(contraction_limit, "the contraction limit")
    return next(_ricci_tensors(metric, [(x, y)], step, contraction_limit))


def curvature_matrix(metric, x, y) -> np.ndarray:
    """Cross-check path for R^i_k via horizontal derivatives.

    Uses delta/delta x^k = d/dx^k - N^j_k d/dy^j with the nonlinear
    connection N = (dG/dy)/2, applied to G^i_j / F; the trace reproduces the
    Ricci scalar of `ricci_scalar`.
    """
    x, y = metric.check_line_element(as_coords(x), as_components(y))
    n = metric.dimension
    _, H = _x_steps(metric, x)
    X, Y = x[None], y[None]
    hT, hX = np.array([1e-3 * _yscale(y)]), np.array([H])
    # dG^i/dy^j at (x, y) and at the y- and x-stencil points of T = (dG^i/dy^j) / F
    TX = np.concatenate([X, _tiled(X, n), _stencil(X, hX)])
    TY = np.concatenate([Y, _stencil(Y, hT), _tiled(Y, n)])
    hy = np.full(len(TY), 1e-4 * _yscale(y))
    Gy = _derivatives(spray_batch(metric, _tiled(TX, n), _stencil(TY, hy)), hy)
    N0 = 0.5 * Gy[0]
    T = Gy[1:] / metric.norm_batch(TX[1:], TY[1:])[:, None, None]
    Ty, dT = _derivatives(T[:4 * n], hT)[0], _derivatives(T[4 * n:], hX)[0]
    delta = []
    for k in range(n):
        dTk = dT[..., k]
        for m in range(n):
            dTk = dTk - N0[m, k] * Ty[..., m]
        delta.append(dTk)
    F = metric.norm(x, y)
    ell = y / F
    R = np.empty((n, n))
    for i in range(n):
        for k in range(n):
            R[i, k] = 0.5 * sum(ell[j] * (delta[k][i, j] - delta[j][i, k]) for j in range(n))
    return R


# ======================================================================
# Ricci bound checker
# ======================================================================

@dataclass
class RicciBoundReport:
    """Eigenvalue test of Ric_ij + c^2 g_ij <= 0 over a sample set.

    The pass test is relative to the fundamental tensor's spectral scale at
    each sample: both matrices grow like the metric coefficients toward a
    domain boundary, so an absolute eigenvalue threshold would be
    meaningless there.
    """

    c: float
    tolerance: float
    max_eigenvalues: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    @property
    def normalized_eigenvalues(self):
        return [e / s for e, s in zip(self.max_eigenvalues, self.scales)]

    @property
    def passed(self) -> bool:
        return bool(self.max_eigenvalues) and all(
            e <= self.tolerance * s
            for e, s in zip(self.max_eigenvalues, self.scales))

    @property
    def worst(self) -> float:
        norm = self.normalized_eigenvalues
        return max(norm) if norm else math.nan

    def to_dict(self):
        return {
            "c": self.c,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_normalized_eigenvalue": self.worst,
            "max_eigenvalues": list(self.max_eigenvalues),
            "scales": list(self.scales),
        }


def check_ricci_bound(metric, samples, c, tolerance=1e-3) -> RicciBoundReport:
    """Check (Ric)_ij <= -c^2 g_ij, as matrices, over sampled line elements."""
    c = positive_finite(c, "the Ricci bound constant c")
    tolerance = positive_finite(tolerance, "the Ricci bound tolerance")
    samples = [(as_coords(x), as_components(y)) for x, y in samples]
    report = RicciBoundReport(c=c, tolerance=tolerance, samples=samples)
    tensors = _ricci_tensors(metric, samples, TENSOR_STEP, CONTRACTION_LIMIT)
    for (x, y), data in zip(samples, tensors):
        g = fundamental_tensor(metric, x, y)
        report.max_eigenvalues.append(float(np.linalg.eigvalsh(data.ric_tensor + c * c * g)[-1]))
        report.scales.append(max(1.0, float(np.abs(np.linalg.eigvalsh(g)).max())))
    return report


# ======================================================================
# Projective factor and the transformation law
# ======================================================================

@dataclass(frozen=True)
class ProjectiveFactor:
    """Scalar P with G_b = G_a + P y, and the fit residual."""

    value: float
    residual: float


def projective_factor(metric_a, metric_b, x, y, tolerance=1e-6) -> ProjectiveFactor:
    """Least-squares fit of P from G_b - G_a = P y.

    Raises NotProjectiveError when the spray difference is not proportional
    to y at this line element.
    """
    x = as_coords(x)
    y = as_components(y)
    ga = spray_vector(metric_a, x, y)
    gb = spray_vector(metric_b, x, y)
    delta = gb - ga
    p = float(delta @ y / (y @ y))
    residual = float(np.abs(delta - p * y).max())
    scale = max(1.0, float(np.abs(ga).max()), float(np.abs(gb).max()))
    if residual > tolerance * scale:
        raise NotProjectiveError(
            f"spray difference is not proportional to y at x={x.tolist()}, "
            f"y={y.tolist()} (residual {residual:.3e})", residual=residual)
    return ProjectiveFactor(p, residual)


def verify_ric_transformation(metric_a, metric_b, x, y) -> float:
    """Residual of the projective transformation law of the Ricci weight.

    For projectively related metrics with factor P (G_b = G_a + P y),

        F_b^2 Ric_b - F_a^2 Ric_a
            = (n - 1)/2 * ( P_{y^i} G_a^i - P_{x^i} y^i + P^2/2 ),

    with the P derivatives taken from the pointwise-fitted factor field.
    Both sides are computed independently; the return value is their gap.
    """
    x = as_coords(x)
    y = as_components(y)
    n = metric_a.dimension

    def p_field(xx, yy):
        delta = spray_vector(metric_b, xx, yy) - spray_vector(metric_a, xx, yy)
        return float(delta @ yy / (yy @ yy))

    projective_factor(metric_a, metric_b, x, y)  # validates relatedness
    hx = 1e-4 * _scale(x)
    hy = 1e-4 * _yscale(y)
    px = np.array([central_d1(lambda xx: p_field(xx, y), x, j, hx) for j in range(n)])
    py = np.array([central_d1(lambda yy: p_field(x, yy), y, j, hy) for j in range(n)])
    p0 = p_field(x, y)
    ga = spray_vector(metric_a, x, y)
    lhs = weighted_ricci(metric_b, x, y) - weighted_ricci(metric_a, x, y)
    law = 0.5 * (n - 1) * (float(py @ ga) - float(px @ y) + 0.5 * p0 * p0)
    return abs(lhs - law)
