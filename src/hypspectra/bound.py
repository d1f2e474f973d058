"""Collar data, cut-locus test functions, and the spectral upper bound.

Everything here certifies inequalities about the assembled pencil, so
conservative choices are made throughout: vertex distances are shortest
edge paths (which overestimate geodesic distance, making the ramp
functions admissible), the collar half-width is the minimum of the
collar-lemma width and half the measured clearance between lifts, and
the support-disjointness hypothesis of the minimax principle is checked
triangle by triangle rather than assumed.

The report evaluates the inequality chain behind the bound step by
step on the actual numbers and records which steps hold; one step
(replacing sinh t by t in a numerator) is false for every positive t,
so the aggregate flag documents the chain as written rather than the
weaker bound it still implies.
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
    "compute_h_general",
    "cross_gram",
    "distance_to_curves",
    "half_collar_areas",
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

    eta is min(collar-lemma width, half the measured clearance between
    distinct lifts); t is eta/2 capped at RAMP_CAP, shrunk further (and
    flagged) when some piece is too thin for the ramp to reach 1.
    """

    eta: float
    lemma_width: float
    lift_clearances: tuple
    t: float
    t_requested: float
    t_shrunk: bool

    def __post_init__(self):
        if not (0 < self.t <= self.eta and self.t <= RAMP_CAP):
            raise BoundError(f"ramp width t={self.t!r} outside (0, min(eta, {RAMP_CAP})]")


def collar_data(cover: CoverSurface, lift_dist: np.ndarray) -> CollarData:
    """Measure collar data for the cover's designated lifts.

    `lift_dist` is `lift_distances(cover)`.
    """
    lifts = cover.lifts
    l = lifts[0].length
    lemma = collar_width(l)

    clearances = []
    for i in range(len(lifts)):
        others = sorted({int(v) for j, c in enumerate(lifts) if j != i for v in c.vertices})
        clearances.append(float(lift_dist[i, others].min()) if others else math.inf)
    eta = min([lemma] + [c / 2.0 for c in clearances])

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
    return CollarData(eta=eta, lemma_width=lemma, lift_clearances=tuple(clearances),
                      t=t, t_requested=t_requested, t_shrunk=shrunk)


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
    """First (i, j, face) whose triangle supports two functions, or None."""
    active = np.stack([(np.abs(f[faces]) > 0).any(axis=1) for f in fs])
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            both = active[i] & active[j]
            if both.any():
                return i, j, int(np.argmax(both))
    return None


def rayleigh(pencil, f) -> float:
    """Discrete Rayleigh quotient (f^T K f) / (f^T B f)."""
    f = np.asarray(f, dtype=float)
    denom = float(f @ (pencil.mass @ f))
    if denom <= 0:
        raise BoundError("test function has zero mass norm")
    return float(f @ (pencil.stiffness @ f)) / denom


def cross_gram(pencil, fs):
    """(F K F^T, F B F^T) for the stacked test functions; exact arithmetic."""
    fs = np.asarray(fs, dtype=float)
    return fs @ (pencil.stiffness @ fs.T), fs @ (pencil.mass @ fs.T)


def minimax_certificate(pencil, fs, faces=None) -> float:
    """max_i rayleigh(f_i), valid as an upper bound for lambda_k.

    The support-disjointness hypothesis is verified before anything is
    computed: no triangle may carry nonzero values of two different
    functions.  With that, cross terms in both K and B vanish exactly
    and the span of the f_i is full-dimensional, so the largest
    blockwise quotient dominates the k-th eigenvalue.
    """
    fs = np.asarray(fs, dtype=float)
    if faces is not None:
        bad = _support_overlap(faces, fs)
        if bad is not None:
            i, j, face = bad
            raise BoundError(
                f"functions {i} and {j} both take nonzero values on triangle {face}")
    return max(rayleigh(pencil, f) for f in fs)


def compute_h_general(surface: TriangulatedSurface, piece_a, piece_b,
                      interface_curves) -> float:
    """Interface length over the smaller piece area, for a two-piece split."""
    piece_a = np.asarray(piece_a, dtype=np.int64)
    piece_b = np.asarray(piece_b, dtype=np.int64)
    if len(piece_a) == 0 or len(piece_b) == 0:
        raise BoundError("both pieces must be nonempty")
    together = np.concatenate([piece_a, piece_b])
    if not np.array_equal(np.sort(together), np.arange(surface.num_faces)):
        raise BoundError("pieces must partition the faces")
    areas = surface.triangle_areas()
    area_a = float(areas[piece_a].sum())
    area_b = float(areas[piece_b].sum())
    total_len = float(sum(c.length for c in interface_curves))
    if total_len <= 0:
        raise BoundError("interface must have positive length")
    return total_len / min(area_a, area_b)


def half_collar_areas(cover: CoverSurface, t: float, lift_dist: np.ndarray):
    """Measured area of {dist <= t} around each lift, split by side.

    A triangle counts when all three of its vertices lie within edge
    path distance t of the lift; that region sits inside the true
    t-neighborhood (edge paths overestimate distance and the
    neighborhood is convex within the embedded collar), so each side's
    area is at most l(gamma) sinh(t).  `lift_dist` is
    `lift_distances(cover)`.
    """
    surf = cover.surface
    areas = surf.triangle_areas()
    k = cover.n + 1
    out = []
    for i, (lift, dist) in enumerate(zip(cover.lifts, lift_dist), start=1):
        inside = (dist[surf.faces] <= t).all(axis=1)
        side_prev = i             # lift i bounds piece i ...
        side_next = i % k + 1     # ... and piece i+1 (cyclically)
        entry = {"lift": i, "reference": lift.length * math.sinh(t), "sides": {}}
        for piece in (side_prev, side_next):
            sel = inside & (cover.piece == piece)
            entry["sides"][piece] = float(areas[sel].sum())
        out.append(entry)
    return out


@dataclass
class BoundReport:
    """Everything the final inequality needs, plus per-step chain flags."""

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
    bound_conservative: float
    rayleigh_quotients: list
    certificate: float
    lambda_n: float
    scale: float
    testfn_variant: str
    bound_holds: bool
    bound_holds_conservative: bool
    certificate_holds: bool
    chain_checks: dict
    chain_assumptions_hold: bool
    half_collar: list
    collar: CollarData = field(repr=False)

    def as_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "collar"}
        d["collar"] = {
            "eta": self.collar.eta,
            "lemma_width": self.collar.lemma_width,
            "lift_clearances": [c if math.isfinite(c) else None
                                for c in self.collar.lift_clearances],
            "t": self.collar.t,
            "t_requested": self.collar.t_requested,
            "t_shrunk": self.collar.t_shrunk,
        }
        return d


def bound_report(cover: CoverSurface, pencil, spectrum,
                 variant: str = "two-sided") -> BoundReport:
    """Assemble the full certification report for one cover."""
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
    quotients = [rayleigh(pencil, f) for f in fs]
    certificate = minimax_certificate(pencil, fs, faces=cover.surface.faces)
    lam = float(spectrum.values[n])
    scale = pencil.stiffness.diagonal().sum() / pencil.dof
    slack = SOLVER_SLACK * scale

    collars = half_collar_areas(cover, t, lift_dist)
    areas = cover.surface.triangle_areas()
    piece_areas = [float(areas[cover.piece == i].sum()) for i in range(1, n + 2)]
    boundary_dist = lift_dist.min(axis=0)
    vp = vertex_pieces(cover)
    plateau = all(np.any((vp == i) & (boundary_dist >= t)) for i in range(1, n + 2))

    sinh_t = math.sinh(t)
    checks = {
        "collar_area_bound": all(a <= entry["reference"] * (1 + 1e-12)
                                 for entry in collars for a in entry["sides"].values()),
        "plateau_nonempty": plateau,
        "piece_smallness": all(l * sinh_t < a for a in piece_areas),
        "drop_factor_ok": h <= n + 1,
        "sinh_lt_one": sinh_t < 1.0,
        "ramp_vs_eta": t >= eta / 2.0 - 1e-15,
        "one_minus_sinh_bound": 1.0 / (1.0 - sinh_t) <= 1.0 + h if sinh_t < 1 else False,
        "ramp_linearization": sinh_t <= t,
    }

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
        bound_conservative=2.0 * bound,
        rayleigh_quotients=[float(q) for q in quotients],
        certificate=float(certificate),
        lambda_n=lam,
        scale=float(scale),
        testfn_variant=variant,
        bound_holds=bool(lam <= bound + slack),
        bound_holds_conservative=bool(lam <= 2.0 * bound + slack),
        certificate_holds=bool(lam <= certificate + slack),
        chain_checks=checks,
        chain_assumptions_hold=all(checks.values()),
        half_collar=collars,
        collar=collar,
    )
