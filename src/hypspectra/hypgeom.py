"""Hyperbolic trigonometry and hyperboloid-model point arithmetic.

All lengths are geodesic distances at curvature -1.  Points live on the
upper sheet of the hyperboloid x0^2 - x1^2 - x2^2 = 1 (x0 > 0) in
Minkowski 3-space; the coordinate axis is always last, so every function
broadcasts over leading axes and can be applied to whole meshes at once.

Triangles are stored purely by their three side lengths.  Angles and
areas come from the side lengths alone, which keeps every downstream
mesh quantity a function of the stored combinatorics + lengths.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance below which a triangle inequality is treated as
# violated.  Fixed; sits far below any length scale refinement produces.
DEGENERACY_RTOL = 1e-12

__all__ = [
    "GeometryError",
    "acosh1p",
    "corner_angles",
    "coshm1",
    "project_tangent",
    "geodesic_point",
    "hexagon_seam_length",
    "hyp_distance",
    "midline_lengths",
    "minkowski_dot",
    "normalize_point",
    "perp_tangent",
    "right_angled_hexagon",
    "rotate_tangent",
    "triangle_areas",
    "validate_triangle_lengths",
]


class GeometryError(ValueError):
    """Input does not describe valid hyperbolic geometry."""


def minkowski_dot(p, q):
    """Minkowski inner product with signature (+, -, -), vectorized."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return p[..., 0] * q[..., 0] - p[..., 1] * q[..., 1] - p[..., 2] * q[..., 2]


def acosh1p(u):
    """arccosh(1 + u) for u >= 0, accurate for small u."""
    u = np.asarray(u, dtype=float)
    return np.log1p(u + np.sqrt(u * (2.0 + u)))


def normalize_point(v):
    """Project a timelike vector back onto the hyperboloid sheet."""
    v = np.asarray(v, dtype=float)
    nrm2 = minkowski_dot(v, v)
    if np.any(nrm2 <= 0):
        raise GeometryError("vector is not timelike, cannot normalize onto hyperboloid")
    return v / np.sqrt(nrm2)[..., None]


def hyp_distance(p, q):
    """Geodesic distance between hyperboloid points (vectorized)."""
    # <p,q> = cosh d; clip the tiny negative excursions that arise for
    # nearly coincident points.
    u = np.maximum(minkowski_dot(p, q) - 1.0, 0.0)
    return acosh1p(u)


def geodesic_point(p, u, t):
    """Point at arc length t along the unit-speed geodesic from p with tangent u."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    return np.cosh(t) * p + np.sinh(t) * u


def geodesic_transport(p, u, t):
    """Tangent of the same geodesic after flowing arc length t."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    return np.sinh(t) * p + np.cosh(t) * u


def perp_tangent(p, u):
    """Unit tangent at p orthogonal to u, oriented by the Lorentz cross product."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    cross = np.cross(p, u)
    cross[..., 1] *= -1.0
    cross[..., 2] *= -1.0
    return cross


def rotate_tangent(p, u, theta):
    """Rotate the unit tangent u at p by angle theta."""
    return math.cos(theta) * np.asarray(u, dtype=float) + math.sin(theta) * perp_tangent(p, u)


def project_tangent(p, u):
    """Project u onto the tangent space at p and rescale to a unit tangent.

    Removes the first-order drift that accumulates when tangents are
    propagated through many flow steps.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    u = u - minkowski_dot(u, p)[..., None] * p
    norm2 = -minkowski_dot(u, u)
    if np.any(norm2 <= 0):
        raise GeometryError("tangent projection collapsed to a non-spacelike vector")
    return u / np.sqrt(norm2)[..., None]


def coshm1(x):
    """cosh(x) - 1 evaluated without cancellation near zero."""
    return 2.0 * np.sinh(0.5 * np.asarray(x, dtype=float)) ** 2


def validate_triangle_lengths(a, b, c):
    """Raise GeometryError unless (a, b, c) are valid triangle side lengths.

    The strict triangle inequality must hold with slack DEGENERACY_RTOL
    relative to the largest side; anything closer to degenerate is
    rejected rather than propagated into angle formulas.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise GeometryError("triangle side lengths must be finite")
    if np.any(a <= 0) or np.any(b <= 0) or np.any(c <= 0):
        raise GeometryError("triangle side lengths must be positive")
    big = np.maximum(a, np.maximum(b, c))
    slack = DEGENERACY_RTOL * big
    bad = (b + c - a <= slack) | (c + a - b <= slack) | (a + b - c <= slack)
    if np.any(bad):
        idx = np.argwhere(bad)
        raise GeometryError(
            f"degenerate triangle: inequality violated within {DEGENERACY_RTOL:g} "
            f"at index {idx[0].tolist()}"
        )


def _angles_raw(a, b, c):
    """Angle opposite side a, from the half-angle form (no validation).

    tan^2(alpha/2) = sinh(s-b) sinh(s-c) / (sinh s sinh(s-a)) stays
    positive and cancellation-free on the whole valid domain.
    """
    s = 0.5 * (a + b + c)
    num = np.sinh(s - b) * np.sinh(s - c)
    den = np.sinh(s) * np.sinh(s - a)
    return 2.0 * np.arctan(np.sqrt(num / den))


def corner_angles(lengths) -> np.ndarray:
    """Interior angles of triangles given side arrays of shape (..., 3).

    angles[..., k] is the angle at corner k, opposite side lengths[..., k].
    """
    lengths = np.asarray(lengths, dtype=float)
    a, b, c = lengths[..., 0], lengths[..., 1], lengths[..., 2]
    validate_triangle_lengths(a, b, c)
    return np.stack(
        [_angles_raw(a, b, c), _angles_raw(b, c, a), _angles_raw(c, a, b)], axis=-1
    )


def triangle_areas(lengths) -> np.ndarray:
    """Areas (angle defects) of triangles given side arrays of shape (..., 3).

    Uses the four-factor arctan form
    tan^2(area/4) = tanh(s/2) tanh((s-a)/2) tanh((s-b)/2) tanh((s-c)/2),
    which is exact and stays accurate for small triangles where the
    plain defect pi - sum(angles) would cancel.
    """
    lengths = np.asarray(lengths, dtype=float)
    a, b, c = lengths[..., 0], lengths[..., 1], lengths[..., 2]
    validate_triangle_lengths(a, b, c)
    s = 0.5 * (a + b + c)
    prod = (
        np.tanh(0.5 * s)
        * np.tanh(0.5 * (s - a))
        * np.tanh(0.5 * (s - b))
        * np.tanh(0.5 * (s - c))
    )
    area = 4.0 * np.arctan(np.sqrt(prod))
    if np.any(area <= 0) or not np.all(np.isfinite(area)):
        raise GeometryError("triangle with non-positive defect rejected as degenerate")
    return area


def hexagon_seam_length(l1: float, l2: float, l3: float) -> float:
    """Seam between cuffs 1 and 2 of a right-angled hexagon with half-cuffs l_i/2.

    The hexagon has alternating sides (l1/2, x, l2/2, ., l3/2, .) and
    satisfies cosh x = (cosh(l3/2) + cosh(l1/2) cosh(l2/2)) /
    (sinh(l1/2) sinh(l2/2)); computed here in the equivalent form
    cosh x - 1 = (cosh(l3/2) + cosh((l1-l2)/2)) / (sinh(l1/2) sinh(l2/2))
    so short seams keep full precision.
    """
    if not (l1 > 0 and l2 > 0 and l3 > 0):
        raise GeometryError("cuff lengths must be positive")
    if not (math.isfinite(l1) and math.isfinite(l2) and math.isfinite(l3)):
        raise GeometryError("cuff lengths must be finite")
    u = (math.cosh(l3 / 2) + math.cosh((l1 - l2) / 2)) / (math.sinh(l1 / 2) * math.sinh(l2 / 2))
    return float(acosh1p(u))


def midline_lengths(lengths) -> np.ndarray:
    """Distances between edge midpoints of triangles, from side lengths alone.

    For side arrays of shape (..., 3), entry k is the distance between
    the midpoints of sides k+1 and k+2 (the midline "parallel" to side
    k).  Derived by expanding Minkowski dots of normalized midpoint
    sums; no coordinates are needed:

        cosh mu_k = 1 + N_k / (4 cosh(l_{k+1}/2) cosh(l_{k+2}/2)),
        N_k = 2 sinh^2(l_k/2)
            + 8 sinh^2((l_{k+1}+l_{k+2})/4) sinh^2((l_{k+1}-l_{k+2})/4).
    """
    lengths = np.asarray(lengths, dtype=float)
    out = np.empty_like(lengths)
    for k in range(3):
        lk = lengths[..., k]
        lp = lengths[..., (k + 1) % 3]
        lq = lengths[..., (k + 2) % 3]
        num = 2.0 * np.sinh(0.5 * lk) ** 2 + 8.0 * (
            np.sinh(0.25 * (lp + lq)) ** 2 * np.sinh(0.25 * (lp - lq)) ** 2
        )
        den = 4.0 * np.cosh(0.5 * lp) * np.cosh(0.5 * lq)
        out[..., k] = acosh1p(num / den)
    return out


def right_angled_hexagon(sides) -> np.ndarray:
    """Corner points of a right-angled hexagon with the given six side lengths.

    Walks the boundary on the hyperboloid, turning by pi/2 at every
    corner, and checks that the walk closes; the closure residual is the
    round-trip error of the underlying hexagon identity.  Returns the
    corners in walk order, shape (6, 3); corner k starts side k.
    """
    sides = np.asarray(sides, dtype=float)
    if sides.shape != (6,):
        raise GeometryError("a hexagon needs exactly six side lengths")
    if np.any(sides <= 0) or not np.all(np.isfinite(sides)):
        raise GeometryError("hexagon side lengths must be positive and finite")
    corners = np.empty((6, 3))
    p = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    for k in range(6):
        corners[k] = p
        q = normalize_point(geodesic_point(p, u, sides[k]))
        w = project_tangent(q, geodesic_transport(p, u, sides[k]))
        p, u = q, rotate_tangent(q, w, math.pi / 2)
    scale = max(1.0, float(np.max(np.abs(corners))))
    err = float(np.max(np.abs(p - corners[0]))) / scale
    if err > 1e-9:
        raise GeometryError(f"hexagon walk failed to close (residual {err:.3e}); "
                            "side lengths are not consistent with right angles")
    return corners
