"""Collar data, cut-locus test functions, and the spectral upper bound.

Everything here certifies inequalities about the assembled pencil, so
conservative choices are made throughout: vertex distances are shortest
edge paths (which overestimate geodesic distance, making the ramp
functions admissible), the collar half-width is the collar-lemma width,
and the support-disjointness hypothesis of the minimax principle is
checked triangle by triangle rather than assumed.  The lifts are
disjoint simple closed geodesics, so their collars of that width are
disjoint (Buser, Geometry and Spectra of Compact Riemann Surfaces,
Thm 4.1.1); `oracle-check` measures the edge-path clearance between
lifts against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .cover import CoverSurface
from .surface import TriangulatedSurface

__all__ = [
    "BoundError",
    "BoundReport",
    "CollarData",
    "RAMP_CAP",
    "SOLVER_SLACK",
    "bound_report",
    "build_test_functions",
    "collar_data",
    "collar_width",
    "cross_gram",
    "distance_to_curves",
    "lift_distances",
    "minimax_certificate",
    "rayleigh",
    "vertex_pieces",
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


def distance_to_curves(surface: TriangulatedSurface, curves) -> np.ndarray:
    """Per-vertex shortest edge-path distance to the union of curve vertices.

    Edge paths overestimate geodesic distance, which is the safe
    direction for building admissible test functions.
    """
    curves = list(curves)
    if not curves:
        raise BoundError("need at least one source curve")
    sources = sorted({int(v) for c in curves for v in c.vertices})
    graph = surface.vertex_graph()
    return csgraph.dijkstra(graph, directed=False, indices=sources, min_only=True)


def lift_distances(cover: CoverSurface) -> np.ndarray:
    """(n+1, V) array whose row i-1 is the edge-path distance to lift i.

    The distance to a union of lifts is the elementwise minimum of their
    rows, bitwise: floating-point d + w is monotone in d, so a
    multi-source run finds exactly the minimum of the single-source runs.
    """
    return np.stack([distance_to_curves(cover.surface, [lift]) for lift in cover.lifts])


def vertex_pieces(cover: CoverSurface) -> np.ndarray:
    """Piece index per vertex; 0 for vertices shared between pieces (on lifts)."""
    vp = np.zeros(cover.surface.num_vertices, dtype=np.int64)
    vp[cover.surface.faces[:, 0]] = cover.piece
    vp[cover.surface.faces[:, 1]] = cover.piece
    vp[cover.surface.faces[:, 2]] = cover.piece
    for lift in cover.lifts:
        vp[list(lift.vertices)] = 0
    return vp


@dataclass(frozen=True)
class CollarData:
    """Certified collar half-width eta and the ramp width t actually used.

    eta is the collar-lemma width collar_width(l) of the lifts; t is
    eta/2 capped at RAMP_CAP, shrunk further (and flagged) when some
    piece is too thin for the ramp to reach 1.
    """

    eta: float
    t: float
    t_requested: float
    t_shrunk: bool

    def __post_init__(self):
        if not (0 < self.t <= self.eta and self.t <= RAMP_CAP):
            raise BoundError(f"ramp width t={self.t!r} outside (0, min(eta, {RAMP_CAP})]")


def collar_data(cover: CoverSurface, lift_dist: np.ndarray) -> CollarData:
    """Collar data for the cover's designated lifts.

    `lift_dist` is `lift_distances(cover)`; it sets how deep each piece
    reaches, which can shrink the ramp width below eta/2.
    """
    eta = collar_width(cover.lifts[0].length)
    t_requested = min(eta / 2.0, RAMP_CAP)
    t = t_requested
    shrunk = False
    # Every piece needs a vertex the ramp cannot reach, else f_i < 1
    # everywhere on that piece.
    boundary_dist = lift_dist.min(axis=0)
    vp = vertex_pieces(cover)
    depths = [boundary_dist[vp == i].max() if np.any(vp == i) else 0.0
              for i in range(1, cover.n + 2)]
    min_depth = min(depths)
    if min_depth < t:
        t = 0.5 * min_depth
        shrunk = True
        if t <= 0:
            raise BoundError("a piece has no interior vertex; mesh too coarse for ramps")
    return CollarData(eta=eta, t=t, t_requested=t_requested, t_shrunk=shrunk)


def build_test_functions(cover: CoverSurface, collar: CollarData, lift_dist: np.ndarray,
                         variant: str = "two-sided") -> np.ndarray:
    """One ramp function per piece, stacked as rows of an (n+1, dof) array.

    Two-sided (default): f_i ramps linearly over width t from the full
    piece boundary, so it is 0 on both bounding lifts, 1 on the deep
    interior of piece i, 0 elsewhere.  One-sided: the ramp distance is
    measured from lift i only, which makes the function climb to 1
    almost immediately on the far side of the piece; it is still forced
    to 0 on every vertex shared between pieces.  In both variants
    distinct functions never share a supporting triangle.  `lift_dist`
    is `lift_distances(cover)`.
    """
    if variant not in ("two-sided", "one-sided"):
        raise BoundError(f"unknown test-function variant {variant!r}")
    dist = lift_dist.min(axis=0) if variant == "two-sided" else lift_dist
    ramp = np.clip(dist / collar.t, 0.0, 1.0)
    own = vertex_pieces(cover)[None, :] == np.arange(1, cover.n + 2)[:, None]
    return np.where(own, ramp, 0.0)


def _support_overlap(faces: np.ndarray, fs: np.ndarray):
    """First (i, j, face) whose triangle supports two functions (copy-major), or None."""
    active = np.stack([(np.abs(f[..., faces]) > 0).any(axis=-1).reshape(-1) for f in fs])
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            both = active[i] & active[j]
            if both.any():
                return i, j, int(np.argmax(both))
    return None


def rayleigh(pencil, f) -> float:
    """Discrete Rayleigh quotient (f^T K f) / (f^T B f).

    f is a vector over the pencil's vertices, or a stack of them whose
    forms add up: a function on a cover glued from copies of the surface
    the pencil lives on, one row per copy (f[cover.copy_vertex]).
    """
    f = np.asarray(f, dtype=float)
    denom = float(np.vdot(f, (pencil.mass @ f.T).T))
    if denom <= 0:
        raise BoundError("test function has zero mass norm")
    return float(np.vdot(f, (pencil.stiffness @ f.T).T)) / denom


def cross_gram(pencil, fs):
    """(F K F^T, F B F^T) for the stacked test functions; exact arithmetic."""
    fs = np.asarray(fs, dtype=float)
    return fs @ (pencil.stiffness @ fs.T), fs @ (pencil.mass @ fs.T)


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
    c_eta: float
    bound: float
    rayleigh_quotients: list
    certificate: float
    lambda_n: float
    scale: float
    testfn_variant: str
    bound_holds: bool
    certificate_holds: bool
    collar: CollarData = field(repr=False)

    def as_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "collar"}
        d["collar"] = {
            "eta": self.collar.eta,
            "t": self.collar.t,
            "t_requested": self.collar.t_requested,
            "t_shrunk": self.collar.t_shrunk,
        }
        return d


def bound_report(cover: CoverSurface, pencil, spectrum,
                 variant: str = "two-sided") -> BoundReport:
    """Assemble the full certification report for one cover.

    `pencil` is assembled on `cover.cut`, and the ramps are taken copy by
    copy on it.  Each cut vertex lands on one cover vertex, so trace(K)
    over the base vertex count is the cover's trace(K)/dof.
    """
    n = cover.n
    if len(spectrum.values) < n + 1:
        raise BoundError(f"need at least {n + 1} eigenvalues, got {len(spectrum.values)}")
    lift_dist = lift_distances(cover)
    collar = collar_data(cover, lift_dist)

    l = cover.lifts[0].length
    base_area = cover.base.total_area()
    h = (n + 1) * l / (cover.N * base_area)
    eta, t = collar.eta, collar.t
    c_eta = 2.0 / eta
    bound = c_eta * (h + h * h)

    fs = build_test_functions(cover, collar, lift_dist, variant=variant)
    certificate, quotients = minimax_certificate(pencil, fs[:, cover.copy_vertex],
                                                 cover.cut.faces)
    lam = float(spectrum.values[n])
    scale = pencil.stiffness.diagonal().sum() / cover.base.num_vertices
    slack = SOLVER_SLACK * scale

    return BoundReport(
        n=n,
        N=cover.N,
        degree=cover.degree,
        curve_length=l,
        base_area=base_area,
        h=h,
        eta=eta,
        t=t,
        c_eta=c_eta,
        bound=bound,
        rayleigh_quotients=quotients,
        certificate=certificate,
        lambda_n=lam,
        scale=float(scale),
        testfn_variant=variant,
        bound_holds=bool(lam <= bound + slack),
        certificate_holds=bool(lam <= certificate + slack),
        collar=collar,
    )
