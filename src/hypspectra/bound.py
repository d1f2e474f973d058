"""Collar and ramp widths, ramp test functions, and the spectral upper bound.

Everything here certifies inequalities about the assembled pencil, so
conservative choices are made throughout: vertex distances are shortest
edge paths (which overestimate geodesic distance, making the ramp
functions admissible), the collar half-width is the collar-lemma width,
and the support-disjointness hypothesis of the minimax principle is
checked rather than assumed.  The lifts are disjoint simple closed
geodesics, so their collars of that width are disjoint (Buser, Geometry
and Spectra of Compact Riemann Surfaces, Thm 4.1.1); `oracle-check`
measures the edge-path clearance between lifts against it.

No cover is built.  A piece of the cover is N copies of the base cut
open along the curve, in a row, bounded by the left circle of its first
copy and the right circle of its last; both are lifts.  The collar
theorem keeps every other copy farther than the ramp width from the
lifts, so the piece's ramp, restricted to one copy, is one of three
vectors on the cut surface: a rise from the left circle, the constant
1, or a fall to the right circle (at N = 1, the smaller of rise and
fall).  Its quadratic forms are those vectors' forms on the cut pencil,
weighted by the number of copies that carry each.  Every piece is a
deck translate of the first, so the n+1 ramps share one quotient.
`oracle-check` compares it with ramps built on the cover itself
(`base_vs_cover_certificate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .surface import CutSurface, TriangulatedSurface

__all__ = [
    "BoundError",
    "BoundReport",
    "RAMP_CAP",
    "SOLVER_SLACK",
    "boundary_distances",
    "bound_report",
    "collar_width",
    "distance_to_curves",
    "minimax_certificate",
    "piece_ramps",
    "ramp_quotient",
    "ramp_width",
    "rayleigh",
]

RAMP_CAP = 0.4          # keeps sinh(t) < 1 with margin
SOLVER_SLACK = 1e-7     # inequality slack per unit of trace(K)/dof


class BoundError(ValueError):
    """A bound-certification precondition failed."""


def collar_width(l: float) -> float:
    """Embedded half-width guaranteed for a simple closed geodesic of length l."""
    if not (l > 0 and math.isfinite(l)):
        raise BoundError("geodesic length must be positive and finite")
    return math.asinh(1.0 / math.sinh(l / 2.0))


def _dijkstra(graph, sources) -> np.ndarray:
    return csgraph.dijkstra(graph, directed=False, indices=sorted(set(sources)),
                            min_only=True)


def distance_to_curves(surface: TriangulatedSurface, curves) -> np.ndarray:
    """Per-vertex shortest edge-path distance to the union of curve vertices.

    Edge paths overestimate geodesic distance, which is the safe
    direction for building admissible test functions.
    """
    curves = list(curves)
    if not curves:
        raise BoundError("need at least one source curve")
    return _dijkstra(surface.vertex_graph(), [int(v) for c in curves for v in c.vertices])


def boundary_distances(cut: CutSurface) -> np.ndarray:
    """(2, V) edge-path distances on the cut surface to its left and right circle.

    Copy by copy, below the ramp width these are the cover's distances
    to the lift on that circle: a path that short never crosses a copy
    from one circle to the other, and after its last visit to the lift
    it stays in one copy.
    """
    graph = cut.vertex_graph()
    return np.stack([_dijkstra(graph, circle)
                     for circle in (cut.left_vertices, cut.right_vertices)])


def ramp_width(l: float) -> float:
    """The ramp width t = min(eta/2, RAMP_CAP) for lifts of length l.

    eta = collar_width(l).  Collars of half-width eta around the lifts
    are disjoint, so every piece reaches at least eta >= 2t from its
    boundary and its ramp has room to reach 1: nothing is measured per
    row.  The minimax bound would hold for a ramp that never reached 1
    as well; a ramp that vanished fails by name in `rayleigh`.
    """
    return min(collar_width(l) / 2.0, RAMP_CAP)


def piece_ramps(cut: CutSurface, dist: np.ndarray, N: int, variant: str = "two-sided"):
    """The ramp of a piece of N copies, taken copy by copy: (vectors, copies).

    vectors[j] holds the ramp's values on the cut vertices of copies[j]
    consecutive copies, in copy order: a distance over the ramp width
    `ramp_width(l)`, clipped to [0, 1].  `dist` is
    `boundary_distances(cut)`.  Two-sided (default): the distance to the
    piece boundary, so the left circle's distance on the first copy, the
    right circle's on the last, and infinity on copies in between, which
    no lift comes within the ramp width of; the ramp is 0 on both
    bounding lifts and 1 on the deep interior.  One-sided: the distance
    to the piece's own lift, the last copy's right circle, with 0 on the
    far lift, the first copy's left circle; the ramp rises from its own
    lift only, and is forced to 0 on the far lift next to its plateau.
    """
    left, right = dist
    far = np.full_like(left, np.inf)
    if variant == "two-sided":
        runs = [(np.minimum(left, right), 1)] if N == 1 else [(left, 1), (far, N - 2), (right, 1)]
    elif variant == "one-sided":
        first = (right if N == 1 else far).copy()
        first[cut.left_vertices] = 0.0
        runs = [(first, 1)] if N == 1 else [(first, 1), (far, N - 2), (right, 1)]
    else:
        raise BoundError(f"unknown test-function variant {variant!r}")
    runs = [(d, k) for d, k in runs if k]
    distances = np.stack([d for d, _ in runs])
    return (np.clip(distances / ramp_width(cut.curve_length), 0.0, 1.0),
            np.array([k for _, k in runs]))


def _check_supports(cut: CutSurface, vectors: np.ndarray, copies: np.ndarray) -> None:
    """Raise unless the copies glue to a function that vanishes on the piece boundary.

    Consecutive copies must agree on the circle they share, so the
    copies' forms add up to the form of one function on the cover.  The
    first copy's left circle and the last copy's right circle are the
    lifts a piece shares with its neighbours; with the ramp 0 there, the
    ramps of distinct pieces share no triangle.
    """
    left, right = cut.left_vertices, cut.right_vertices
    seams = ({(j, j) for j, k in enumerate(copies) if k > 1}
             | {(j, j + 1) for j in range(len(copies) - 1)})
    for a, b in sorted(seams):
        if not np.array_equal(vectors[a][right], vectors[b][left]):
            raise BoundError(f"ramp copies {a} and {b} of a piece differ on the circle "
                             "they share")
    for name, values in (("first copy's left", vectors[0][left]),
                         ("last copy's right", vectors[-1][right])):
        if np.any(values != 0):
            raise BoundError(f"ramp is nonzero on its piece's {name} circle, a lift "
                             "it shares with the neighbouring piece")


def ramp_quotient(cut: CutSurface, pencil, dist: np.ndarray, N: int,
                  variant: str = "two-sided") -> float:
    """The Rayleigh quotient of each piece's ramp, N copies per piece.

    `pencil` is assembled on `cut`, and `dist` is `boundary_distances(cut)`,
    which serves every N.  The ramp's support check runs before the quotient.
    """
    vectors, copies = piece_ramps(cut, dist, N, variant)
    _check_supports(cut, vectors, copies)
    return rayleigh(pencil, vectors, copies)


def rayleigh(pencil, f, copies=None) -> float:
    """Discrete Rayleigh quotient (f^T K f) / (f^T B f).

    f is a vector over the pencil's vertices, or a stack of them whose
    forms add up: a function on a cover glued from copies of the surface
    the pencil lives on, one row per copy (f[cover.copy_vertex]), where
    row j stands for copies[j] copies (one each by default).
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    copies = np.ones(len(f)) if copies is None else np.asarray(copies, dtype=float)

    def form(mat) -> float:
        return float(copies @ np.einsum("ij,ji->i", f, mat @ f.T))

    denom = form(pencil.mass)
    if denom <= 0:
        raise BoundError("test function has zero mass norm")
    return form(pencil.stiffness) / denom


def _support_overlap(faces: np.ndarray, fs: np.ndarray):
    """First (i, j, face) whose triangle supports two functions (copy-major), or None."""
    active = np.stack([(np.abs(f[..., faces]) > 0).any(axis=-1).reshape(-1) for f in fs])
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            both = active[i] & active[j]
            if both.any():
                return i, j, int(np.argmax(both))
    return None


def minimax_certificate(pencil, fs, faces: np.ndarray) -> tuple[float, list]:
    """(max_i rayleigh(f_i), [rayleigh(f_i)]); the maximum bounds lambda_k.

    fs[i] is function i in either form `rayleigh` takes, and `faces` are
    the triangles of the pencil's surface.  The support-disjointness
    hypothesis is verified before anything is computed: no triangle (of
    any copy) may carry nonzero values of two different functions.  With
    that, cross terms in both K and B vanish exactly and the span of the
    f_i is full-dimensional, so the largest blockwise quotient dominates
    the k-th eigenvalue.
    """
    fs = np.asarray(fs, dtype=float)
    bad = _support_overlap(faces, fs)
    if bad is not None:
        i, j, face = bad
        raise BoundError(
            f"functions {i} and {j} both take nonzero values on triangle {face}")
    quotients = [rayleigh(pencil, f) for f in fs]
    return max(quotients), quotients


@dataclass
class BoundReport:
    """The closed-form bound and the minimax certificate for one cover."""

    n: int
    N: int
    degree: int
    curve_length: float
    base_area: float
    h: float
    eta: float
    t: float
    bound: float
    certificate: float
    lambda_n: float
    scale: float
    testfn_variant: str
    bound_holds: bool
    certificate_holds: bool


def bound_report(cut: CutSurface, pencil, spectrum, n: int, N: int,
                 variant: str = "two-sided", *, dist: np.ndarray,
                 base_area: float) -> BoundReport:
    """The full certification report for the cover with n+1 pieces of N copies.

    `pencil` is assembled on `cut`, the base cut open along the curve,
    and the cover is never built (`ramp_quotient`).  `dist` is
    `boundary_distances(cut)` and `base_area` the area of the base (or
    of `cut`, the same triangles); both are the same for every N, so a
    sweep computes them once for all its rows.  Each cut vertex lands
    on one cover vertex, so trace(K) over the base vertex count is the
    cover's trace(K)/dof.
    """
    if len(spectrum.values) < n + 1:
        raise BoundError(f"need at least {n + 1} eigenvalues, got {len(spectrum.values)}")
    quotient = ramp_quotient(cut, pencil, dist, N, variant)

    l = cut.curve_length
    h = (n + 1) * l / (N * base_area)
    eta, t = collar_width(l), ramp_width(l)
    bound = 2.0 / eta * (h + h * h)

    lam = float(spectrum.values[n])
    scale = pencil.stiffness.diagonal().sum() / (cut.num_vertices - len(cut.right_vertices))
    slack = SOLVER_SLACK * scale

    return BoundReport(
        n=n,
        N=N,
        degree=(n + 1) * N,
        curve_length=l,
        base_area=base_area,
        h=h,
        eta=eta,
        t=t,
        bound=bound,
        certificate=quotient,
        lambda_n=lam,
        scale=float(scale),
        testfn_variant=variant,
        bound_holds=bool(lam <= bound + slack),
        certificate_holds=bool(lam <= quotient + slack),
    )
