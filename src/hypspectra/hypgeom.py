"""Hyperbolic trigonometry from side lengths alone, at curvature -1.

Triangles are stored purely by their three side lengths; the functions
broadcast over leading axes with the sides last, so they apply to whole
meshes at once.  Angles, areas and midlines come from the side lengths,
and so do a right-angled hexagon's seams and centroid distances: no
point coordinates are ever formed.
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
    "hexagon_centroid_distances",
    "hexagon_seam_length",
    "midline_lengths",
    "triangle_areas",
    "validate_triangle_lengths",
]


class GeometryError(ValueError):
    """Input does not describe valid hyperbolic geometry."""


def acosh1p(u):
    """arccosh(1 + u) for u >= 0, accurate for small u."""
    u = np.asarray(u, dtype=float)
    return np.log1p(u + np.sqrt(u * (2.0 + u)))


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
    if not max(l1, l2, l3) < 1400:
        raise GeometryError("cuff lengths must be below 1400, where cosh overflows float64")
    den = math.sinh(l1 / 2) * math.sinh(l2 / 2)
    u = (math.cosh(l3 / 2) + math.cosh((l1 - l2) / 2)) / den if den else math.inf
    # acosh1p squares u, so u must stay well inside the float64 range.
    if not 0 < u < 1e150:
        raise GeometryError(f"seam of cuffs ({l1!r}, {l2!r}, {l3!r}) is out of float64 range")
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


def hexagon_centroid_distances(sides) -> np.ndarray:
    """Distances from a right-angled hexagon's centroid to its six corners.

    Corner k starts side k, of length S_k = sides[k].  The centroid is
    the normalised sum of the corners, so cosh r_k is row sum k of the
    corners' Gram matrix G over the square root of the sum of all of G.
    Entry G_jk is the cosh of the distance between corners j and k, and
    comes from the sides alone (indices mod 6):

        G_jj      = 1,
        G_j,j+1   = cosh S_j,
        G_j,j+2   = cosh S_j cosh S_{j+1}          (Pythagoras),
        G_j,j+3   = cosh S_j cosh S_{j+2} coshm1(S_{j+1})
                    + cosh(S_j - S_{j+2})           (two right angles).

    Every term is positive, so nothing cancels.
    """
    S = np.asarray(sides, dtype=float)
    if S.shape != (6,) or not np.all((S > 0) & np.isfinite(S)):
        raise GeometryError("a hexagon needs six positive finite side lengths")
    with np.errstate(over="ignore"):
        ch = np.cosh(S)
        two = ch * np.roll(ch, -1)
        opposite = ch * np.roll(ch, -2) * coshm1(np.roll(S, -1)) + np.cosh(S - np.roll(S, -2))
        rows = 1.0 + ch + np.roll(ch, 1) + two + np.roll(two, 2) + opposite
        total = rows.sum()
    if not np.isfinite(total):
        raise GeometryError("hexagon corner distances are out of float64 range")
    return np.arccosh(rows / math.sqrt(total))
