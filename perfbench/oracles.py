"""Closed-form reference values for the benchmark's correctness checks.

Written with math and numpy only; nothing here calls finslerproj, so a
wrong value in the library cannot also be wrong here for the same reason.

Metric families, as plain data:
  ("euclid",)                 F = |y|
  ("klein",)                  F^2 = |y|^2/(1-|x|^2) + <x,y>^2/(1-|x|^2)^2
  ("funk", A, c, r2, k)       Funk metric of {(x-c) A (x-c) < r2}, divided by k
  ("randers", a, b)           F = sqrt(y a y) + b y, constant a and b
The unit-ball Funk metric is ("funk", I, 0, 1, 1).
"""

import math

import numpy as np


def funk_exit(domain, x, y):
    """Largest t > 0 with x + t y on the boundary of the Funk domain."""
    _, A, c, r2, _ = domain
    d = x - c
    qa = float(y @ A @ y)
    qb = float(d @ A @ y)
    qc = float(d @ A @ d) - r2
    return (-qb + math.sqrt(qb * qb - qa * qc)) / qa


def norm(family, x, y):
    """F(x, y) for one of the families in the module docstring."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kind = family[0]
    if kind == "euclid":
        return float(np.linalg.norm(y))
    if kind == "klein":
        phi = 1.0 - float(x @ x)
        xy = float(x @ y)
        return math.sqrt(float(y @ y) / phi + xy * xy / (phi * phi))
    if kind == "funk":
        # F(x, y) = 1 / (k t) where x + t y is the boundary exit
        return 1.0 / (family[4] * funk_exit(family, x, y))
    if kind == "randers":
        _, a, b = family
        return math.sqrt(float(y @ a @ y)) + float(b @ y)
    raise ValueError(f"unknown metric family {kind!r}")


def funk_fundamental_tensor(family, x, y):
    """g_ij = (F^2/2)_{y^i y^j} of a Funk family, through its Randers form:
    F = sqrt(y a y) + b y with a = (w w^T + A phi) / (k phi)^2 and
    b = w / (k phi), where phi = r2 - (x-c) A (x-c) and w = A (x-c)."""
    _, A, c, r2, k = family
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - c
    phi = r2 - float(d @ A @ d)
    w = A @ d
    a = (np.outer(w, w) + A * phi) / (k * phi) ** 2
    b = w / (k * phi)
    alpha = math.sqrt(float(y @ a @ y))
    ell = a @ y / alpha
    F = alpha + float(b @ y)
    return (F / alpha) * (a - np.outer(ell, ell)) + np.outer(ell + b, ell + b)


def fundamental_tensor(family, x, y):
    """g_ij of a Klein or Funk family at the line element (x, y)."""
    if family[0] == "klein":
        x = np.asarray(x, dtype=float)
        phi = 1.0 - float(x @ x)
        return np.eye(len(x)) / phi + np.outer(x, x) / (phi * phi)
    if family[0] == "funk":
        return funk_fundamental_tensor(family, x, y)
    raise ValueError(f"no fundamental tensor for {family[0]!r}")


def distance(family, x, y):
    """Induced (forward) distance d(x, y) from closed forms."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kind = family[0]
    if kind in ("euclid", "randers"):
        return norm(family, x, y - x)     # straight lines, x-independent F
    if kind == "klein":
        num = 1.0 - float(x @ y)
        den = math.sqrt((1.0 - float(x @ x)) * (1.0 - float(y @ y)))
        return math.acosh(num / den)
    if kind == "funk":
        # ln(|b - x| / |b - y|), b the boundary exit of the ray x -> y
        t = funk_exit(family, x, y - x)
        return math.log(t / (t - 1.0)) / family[4]
    raise ValueError(f"unknown metric family {kind!r}")


def funk_backward_reach(family, x, y):
    """Arc length from the boundary behind x (on the chord y -> x) up to x."""
    x = np.asarray(x, dtype=float)
    back = x + funk_exit(family, x, x - np.asarray(y, dtype=float)) * (x - y)
    return distance(family, back, x)


def interval_funk_distance(a, b):
    """Forward Funk distance from a to b >= a on (-1, 1), with k = 1."""
    return math.log((1.0 - a) / (1.0 - b))


def canonical_chain_value(family, x, y):
    """Chain value of the canonical (untranslated) chart for the pair x, y.

    Klein: pi(s) = tanh s spans (-1, 1), so the value is -ln(1 - tanh d).
    Unit Funk ball: pi(s) = 2 tanh(s/2) spans (-2 tanh(s_b/2), 2), with s_b
    the backward reach; the canonical chart maps that range affinely onto
    (-1, 1) and the value is the interval Funk distance of the images of
    pi(0) = 0 and pi(d) = 2 tanh(d/2).
    """
    d = distance(family, x, y)
    if family[0] == "klein":
        return -math.log(1.0 - math.tanh(d))
    if family[0] == "funk":
        lo = -2.0 * math.tanh(0.5 * funk_backward_reach(family, x, y))
        hi = 2.0

        def pull(p):
            return 2.0 * (p - lo) / (hi - lo) - 1.0

        return interval_funk_distance(pull(0.0), pull(2.0 * math.tanh(0.5 * d)))
    raise ValueError(f"no canonical chain value for {family[0]!r}")


def einstein_ricci(family, n):
    """Ricci scalar of the Einstein exemplars: Ric_ij = ricci * g_ij."""
    if family[0] == "klein":
        return -(n - 1.0)
    if family[0] == "funk":
        return -(n - 1.0) * family[4] ** 2 / 4.0
    raise ValueError(f"{family[0]!r} is not an Einstein exemplar")


def equality_constant(family, n):
    """The c with Ric_ij = -c^2 g_ij, so the Ricci bound holds at equality."""
    return math.sqrt(-einstein_ricci(family, n))
