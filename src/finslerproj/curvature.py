"""Ricci scalar and tensor of the geodesic spray, the negative-Ricci-bound
checker, and the projective-factor machinery.

The Ricci scalar is built from the spray coefficients:

    2 F^2 Ric = 2 (G^i)_{x^i} - (G^i)_{y^j} (G^j)_{y^i} / 2
                - y^j (G^i)_{y^i x^j} + G^j (G^i)_{y^i y^j}

so it is 0-homogeneous in y and equals (n-1) times the flag curvature on
constant-curvature metrics. A jet-capable spray is called once, in
second-order forward mode (`Dual2`) over the 2n variables y, x with (N,)
values, so a whole stack of line elements costs one spray evaluation
(`ricci_scalar_batch`); a black-box spray costs one `spray_batch` call, by
nested stencils. For a Riemannian tensor without an analytic spray the spray's
x-data (the tensor and its x-derivatives) does not depend on y: it is
computed once per stencil point.

The Ricci tensor is the y-Hessian of F^2 Ric / 2 by diffengine's one
y-Hessian stencil at y scaled into [1/2, 1), which keeps the contraction
identity Ric_ik l^i l^k = Ric automatic. `check_ricci_bound`
validates all its samples, evaluates F^2 Ric over every sample's stencil
points in one batch, then assembles the samples in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _Report, boundary_room, positive_finite, unit_scaled
from .diffengine import (Dual2, fundamental_tensor, gradient_combine, gradient_points,
                         hessian_combine, hessian_offsets, hessian_points)
from .errors import AccuracyError, DomainError, NotProjectiveError
from .geodesics import spray_batch, spray_vector


# ======================================================================
# finite-difference steps (the stencil is diffengine.gradient_points)
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


def _spray_terms_jets(metric, X, Y):
    """The spray terms of the Ricci formula (see _ricci_and_energy), exact, from
    one second-order forward pass: the N line elements of the (N, n) stacks
    X, Y are its batch, y^1..y^n then x^1..x^n its 2n variables, and the
    Hessian rows of the y's hold every second derivative the formula needs;
    no stencil room needed."""
    n = metric.dimension
    z = Dual2.variables(list(np.ascontiguousarray(Y.T)) + list(np.ascontiguousarray(X.T)), n)
    # a spray part that does not depend on x or y comes back as a Python 0.0
    G = [gi if isinstance(gi, Dual2) else z[0].constant(gi)
         for gi in metric._spray_impl(z[n:], z[:n])]
    tr_gx = sum(gi.grad[n + i] for i, gi in enumerate(G))
    gy = np.stack([gi.grad[:n] for gi in G]).transpose(2, 0, 1)   # gy[:, i, j] = dG^i/dy^j
    sx = sum(gi.hess[i, n:] for i, gi in enumerate(G)).T          # sum_i d2G^i/dy^i dx^j
    sy = sum(gi.hess[i, :n] for i, gi in enumerate(G)).T          # sum_i d2G^i/dy^i dy^j
    g0 = np.stack([np.broadcast_to(gi.val, (len(X),)) for gi in G], axis=1)
    return (g0, tr_gx) + tuple(np.ascontiguousarray(v) for v in (gy, sx, sy))


def _tiled(V, n):
    """The (P, n) stack V repeated in the layout of gradient_points."""
    return np.tile(V, (4 * n, 1))


def _spray_terms_stencil(metric, X, Y):
    """The spray terms of the Ricci formula for a black-box spray at the
    (N, n) stacks X, Y, N > 0, by nested central differences: every
    element's x-steps, then one spray_batch call."""
    n = metric.dimension
    hx, Hx = np.array([_x_steps(metric, x) for x in X], dtype=float).T
    hy, Hy = 1e-5 * np.abs(Y).max(axis=1), 1e-3 * np.abs(Y).max(axis=1)  # _yscale per row
    # points of the Sx and Sy stencils, where S(xx, yy) = sum_i dG^i/dy^i
    SX = np.concatenate([gradient_points(X, Hx), _tiled(X, n)])
    SY = np.concatenate([_tiled(Y, n), gradient_points(Y, Hy)])
    hS = 1e-4 * np.abs(SY).max(axis=1)
    XX = [X, gradient_points(X, hx), _tiled(X, n), _tiled(SX, n)]
    YY = [Y, _tiled(Y, n), gradient_points(Y, hy), gradient_points(SY, hS)]
    G0, Gx, Gy, GS = np.split(spray_batch(metric, np.concatenate(XX), np.concatenate(YY)),
                              np.cumsum([len(v) for v in XX])[:-1])
    Gx, Gy, GS = (gradient_combine(Gx, hx), gradient_combine(Gy, hy),
                  gradient_combine(GS, hS))
    S = sum(GS[:, i, i] for i in range(n))
    Sx, Sy = gradient_combine(S[:len(SX) // 2], Hx), gradient_combine(S[len(SX) // 2:], Hy)
    return G0, np.trace(Gx, axis1=1, axis2=2), Gy, Sx, Sy


def _ricci_and_energy(metric, X, Y):
    """(Ric, F^2) of the line elements stacked in X, Y, as (N,) arrays: every
    element is validated by `norm_batch`, which also gives its F^2, then the
    spray's second-order pass or its stencils give the spray terms of the
    whole stack at once: G, tr dG/dx, the Jacobian dG/dy, and the sums
    S_x = sum_i d2G^i/dy^i dx and S_y = sum_i d2G^i/dy^i dy."""
    X = np.asarray(X, dtype=float)
    Y, e = unit_scaled(np.asarray(Y, dtype=float))  # Ric is 0-homogeneous
    F = metric.norm_batch(X, Y)
    f2 = F * F  # correctly rounded, so F^2 is exact under the power-of-two scaling
    if not len(X):
        return f2, f2
    route = _spray_terms_jets if metric.closed_form else _spray_terms_stencil
    G, tr_gx, Gy, Sx, Sy = route(metric, X, Y)
    # stacked matmuls rather than elementwise sums: each element's products
    # then sum exactly as the 2-D trace and dot products of one element do
    ric = (2.0 * tr_gx - 0.5 * np.trace(Gy @ Gy, axis1=1, axis2=2)
           - (Y[:, None, :] @ Sx[:, :, None])[:, 0, 0]
           + (G[:, None, :] @ Sy[:, :, None])[:, 0, 0]) / (2.0 * f2)
    with np.errstate(over="ignore"):  # F^2 at y itself may overflow where Ric does not
        return ric, np.ldexp(f2, 2 * e)


def ricci_scalar_batch(metric, X, Y) -> np.ndarray:
    """Ricci scalars of N line elements given as (N, n) stacks of points X
    and vectors Y; element k equals ricci_scalar(metric, X[k], Y[k])."""
    return _ricci_and_energy(metric, X, Y)[0]


def ricci_scalar(metric, x, y) -> float:
    """Ricci scalar at the line element (x, y); 0-homogeneous in y."""
    return float(ricci_scalar_batch(metric, [x], [y])[0])


def weighted_ricci(metric, x, y) -> float:
    """F^2 Ric, the 2-homogeneous Ricci weight entering the parameter ODE."""
    F = metric.norm(x, y)
    return F * F * ricci_scalar(metric, x, y)


# ======================================================================
# Ricci tensor
# ======================================================================

@dataclass(frozen=True)
class CurvatureData:
    """Curvature quantities at one line element."""

    ric: float
    ric_tensor: np.ndarray
    ell: np.ndarray

    @property
    def contraction_residual(self) -> float:
        return abs(float(self.ell @ self.ric_tensor @ self.ell) - self.ric)


# ricci_tensor's y-step, relative to max|y|, and its contraction-residual limit;
# check_ricci_bound's limit on the top eigenvalue of Ric + c^2 g, relative to g's scale;
# projective_factor's limit on its fit residual, relative to the sprays' scale
TENSOR_STEP = 0.05
CONTRACTION_LIMIT = 1e-3
RICCI_BOUND_TOLERANCE = 1e-3
PROJECTIVE_FACTOR_TOLERANCE = 1e-6


def _ricci_tensors(metric, samples):
    """Ricci tensors of the line elements in `samples`, yielded in order.

    Every sample is validated and its y scaled into [1/2, 1) before any
    curvature work (the tensor is 0-homogeneous). F^2 Ric over the stencil
    points of all samples then costs one _ricci_and_energy call, and the
    values are differenced by hessian_combine, all samples at once; each
    sample is checked against CONTRACTION_LIMIT (and may raise
    AccuracyError) only when it is reached.
    """
    elements = [metric.check_line_element(x, y) for x, y in samples]
    if not elements:
        return
    X = np.array([x for x, _ in elements])
    Ys = unit_scaled(np.array([y for _, y in elements]))[0]
    h = TENSOR_STEP * np.abs(Ys).max(axis=1)
    K = len(hessian_offsets(metric.dimension))  # stencil points per sample
    X, Y = np.repeat(X, K, axis=0), hessian_points(Ys, h)

    def hessians(k0, k1):
        """F^2 Ric at y, and the Ricci tensors, of samples k0 to k1 - 1."""
        ric, f2 = _ricci_and_energy(metric, X[k0 * K:k1 * K], Y[k0 * K:k1 * K])
        W = (f2 * ric).reshape(k1 - k0, K)
        return W[:, 0].tolist(), 0.5 * hessian_combine(W, h[k0:k1])

    try:
        weighted, tensors = hessians(0, len(elements))
    except Exception:
        if len(elements) == 1:
            raise
        # some sample's curvature work fails: redo it sample by sample, so
        # an earlier sample's AccuracyError still comes first and the
        # failing sample raises again when it is reached
        tensors = None
    for k, ((x, _), y) in enumerate(zip(elements, Ys)):
        w, tensor = ((weighted[k], tensors[k]) if tensors is not None
                     else (v[0] for v in hessians(k, k + 1)))
        F = metric.norm(x, y)
        data = CurvatureData(ric=w / (F * F), ric_tensor=tensor, ell=y / F)
        if not (math.isfinite(data.ric) and np.all(np.isfinite(tensor))):
            raise DomainError(f"F^2 Ric is not finite on ricci_tensor's y-stencil at "
                              f"x={x.tolist()}: the curvature overflows there")
        if data.contraction_residual > CONTRACTION_LIMIT * max(1.0, abs(data.ric)):
            raise AccuracyError(
                f"Ricci contraction identity residual {data.contraction_residual:.3e}",
                achieved=data.contraction_residual)
        yield data


def ricci_tensor(metric, x, y) -> CurvatureData:
    """Akbar-Zadeh Ricci tensor, the y-Hessian of F^2 Ric / 2.

    The weighted-Ricci field F^2 Ric, evaluated at all stencil points in one
    batch, is differenced by hessian_combine at the step TENSOR_STEP max|y|,
    with y scaled into [1/2, 1). The contraction identity is enforced a
    posteriori; a residual above CONTRACTION_LIMIT raises AccuracyError.
    """
    return next(_ricci_tensors(metric, [(x, y)]))


def curvature_matrix(metric, x, y) -> np.ndarray:
    """Cross-check path for R^i_k via horizontal derivatives.

    Uses delta/delta x^k = d/dx^k - N^j_k d/dy^j with the nonlinear
    connection N = (dG/dy)/2, applied to G^i_j / F; the trace reproduces the
    Ricci scalar of `ricci_scalar`.
    """
    x, y = metric.check_line_element(x, y)
    n = metric.dimension
    _, H = _x_steps(metric, x)
    X, Y = x[None], y[None]
    hT, hX = np.array([1e-3 * _yscale(y)]), np.array([H])
    # dG^i/dy^j at (x, y) and at the y- and x-stencil points of T = (dG^i/dy^j) / F
    TX = np.concatenate([X, _tiled(X, n), gradient_points(X, hX)])
    TY = np.concatenate([Y, gradient_points(Y, hT), _tiled(Y, n)])
    hy = np.full(len(TY), 1e-4 * _yscale(y))
    Gy = gradient_combine(spray_batch(metric, _tiled(TX, n), gradient_points(TY, hy)), hy)
    N0 = 0.5 * Gy[0]
    T = Gy[1:] / metric.norm_batch(TX[1:], TY[1:])[:, None, None]
    Ty, dT = gradient_combine(T[:4 * n], hT)[0], gradient_combine(T[4 * n:], hX)[0]
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
class RicciBoundReport(_Report):
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
    _hidden = ("samples",)
    _added = {"passed": "passed", "worst_normalized_eigenvalue": "worst"}

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


def check_ricci_bound(metric, samples, c) -> RicciBoundReport:
    """Check (Ric)_ij <= -c^2 g_ij, as matrices, over sampled line elements."""
    c = positive_finite(c, "the Ricci bound constant c")
    samples = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in samples]
    report = RicciBoundReport(c=c, tolerance=RICCI_BOUND_TOLERANCE, samples=samples)
    tensors = _ricci_tensors(metric, samples)
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


def projective_factor(metric_a, metric_b, x, y) -> ProjectiveFactor:
    """Least-squares fit of P from G_b - G_a = P y.

    Raises NotProjectiveError when the spray difference is not proportional
    to y at this line element.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ga = spray_vector(metric_a, x, y)
    gb = spray_vector(metric_b, x, y)
    delta = gb - ga
    p = float(delta @ y / (y @ y))
    residual = float(np.abs(delta - p * y).max())
    scale = max(1.0, float(np.abs(ga).max()), float(np.abs(gb).max()))
    if residual > PROJECTIVE_FACTOR_TOLERANCE * scale:
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = metric_a.dimension

    def p_field(xx, yy):
        delta = spray_vector(metric_b, xx, yy) - spray_vector(metric_a, xx, yy)
        return float(delta @ yy / (yy @ yy))

    projective_factor(metric_a, metric_b, x, y)  # validates relatedness
    hx, hy = np.array([1e-4 * _scale(x)]), np.array([1e-4 * _yscale(y)])
    px = gradient_combine(np.array([p_field(v, y) for v in gradient_points(x[None], hx)]),
                          hx)[0]
    py = gradient_combine(np.array([p_field(x, v) for v in gradient_points(y[None], hy)]),
                          hy)[0]
    p0 = p_field(x, y)
    ga = spray_vector(metric_a, x, y)
    lhs = weighted_ricci(metric_b, x, y) - weighted_ricci(metric_a, x, y)
    law = 0.5 * (n - 1) * (float(py @ ga) - float(px @ y) + 0.5 * p0 * p0)
    return abs(lhs - law)
