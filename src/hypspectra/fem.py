"""Midpoint refinement and piecewise-linear finite element pencils.

Refinement replaces each triangle by four children using the exact
hyperbolic midlines, so the refined mesh is again a valid
length-surface with untouched cone angles and total area.  No
coordinates are involved; child side lengths come from closed-form
identities on the parent lengths.

The stiffness matrix uses the cotangent weights of the Euclidean
comparison triangle of each face (the Euclidean triangle with the same
side lengths), one weight per side (`side_weights`), while the mass
matrix uses the hyperbolic triangle areas.  An entry off the diagonal
is a sum over the sides that join its two vertices, and a diagonal
entry a sum over the corners at its vertex.  Each sum is taken in a
canonical order, which makes assembly invariant under any relabeling
of faces: permuting the mesh by a symmetry permutes the matrices
exactly, with bitwise-equal entries.  The sides are sorted once by
vertex pair and the corners once by vertex, and only the sums of three
or more terms are then sorted by value.  The sum of one or two terms
does not depend on their order (a + b == b + a bitwise in IEEE
arithmetic), so every entry has the same bits whatever order the faces
come in, and a relabeled mesh gives the permuted matrix bit for bit.

`prolongation` is the P1 interpolation from a surface to its `refine`,
which carries eigenvectors of one level up to the next as a starting
block for the solver.

`refine` numbers the four children of face f 4f..4f+3, with 4f the
central one, so the faces of a surface refined L times form a quadtree
under the base faces: face f descends from base face f >> 2L.
`dissection` depends on this numbering.  It orders the vertices of a
refined surface by nested dissection along that tree, whose top levels
split the base faces by spectral bisection (`bisection_codes`), and
`converge` factors its pencils in that order.

`assemble` reads only faces, lengths and the vertex count, so it also
assembles a surface cut open along a curve.  That pencil also gives the
quadratic forms of a cover glued from copies of the cut surface: every
cover triangle is a triangle of one copy, so f^T K f on the cover is the
sum over the copies of the cut pencil's form (`bound.rayleigh`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse import csgraph

from . import hypgeom
from .surface import CutSurface, TriangulatedSurface, curve_from_sides

__all__ = [
    "SparsePencil",
    "assemble",
    "bisection_codes",
    "dissection",
    "prolongation",
    "refine",
    "side_weights",
]


def _midpoint_ids(surface: TriangulatedSurface):
    """Midpoint vertex id for every side: V + index of its undirected edge."""
    sides = surface.canonical_sides()
    edge_of = np.full((surface.num_faces, 3), -1, dtype=np.int64)
    f, s = sides[:, 0], sides[:, 1]
    edge_of[f, s] = np.arange(len(sides))
    g, r = surface.glue[f, s, 0], surface.glue[f, s, 1]
    edge_of[g, r] = np.arange(len(sides))
    return surface.num_vertices + edge_of


def refine(surface: TriangulatedSurface, curves=()):
    """Split every face into four; returns (refined_surface, refined_curves).

    Child 4f is the central midline triangle of face f; child 4f+1+k
    keeps parent corner k.  `dissection` depends on this numbering: the
    children of face f are 4f..4f+3.  Each curve in `curves` is carried
    along by replacing every edge with its two halves, so it keeps its
    vertices, gains the midpoints between them and keeps its length; the
    refined curves are returned in the same order.
    """
    F = surface.num_faces
    V = surface.num_vertices
    mid = _midpoint_ids(surface)
    mu = hypgeom.midline_lengths(surface.lengths)

    faces = np.empty((4 * F, 3), dtype=np.int64)
    lengths = np.empty((4 * F, 3), dtype=np.float64)
    parents = np.arange(F)
    faces[0::4] = mid
    lengths[0::4] = mu
    for k in range(3):
        child = 4 * parents + 1 + k
        faces[child, 0] = surface.faces[:, k]
        faces[child, 1] = mid[:, (k + 2) % 3]
        faces[child, 2] = mid[:, (k + 1) % 3]
        lengths[child, 0] = mu[:, k]
        lengths[child, 1] = surface.lengths[:, (k + 1) % 3] / 2.0
        lengths[child, 2] = surface.lengths[:, (k + 2) % 3] / 2.0

    # Side s of parent f is directed v_{s+1} -> v_{s+2}; its first half
    # lies on child s+1 (side 2), its second half on child s+2 (side 1).
    def half1(f, s):
        return 4 * f + 1 + (s + 1) % 3, 2

    def half2(f, s):
        return 4 * f + 1 + (s + 2) % 3, 1

    glue = np.empty((4 * F, 3, 2), dtype=np.int64)
    for k in range(3):
        glue[4 * parents, k, 0] = 4 * parents + 1 + k
        glue[4 * parents, k, 1] = 0
        glue[4 * parents + 1 + k, 0, 0] = 4 * parents
        glue[4 * parents + 1 + k, 0, 1] = k
    for s in range(3):
        gf, gs = surface.glue[:, s, 0], surface.glue[:, s, 1]
        a_f, a_s = half1(parents, s)
        b_f, b_s = half2(gf, gs)
        glue[a_f, a_s, 0], glue[a_f, a_s, 1] = b_f, b_s
        glue[b_f, b_s, 0], glue[b_f, b_s, 1] = a_f, a_s

    refined = TriangulatedSurface(faces, lengths, glue)

    out_curves = [curve_from_sides(refined, [h for f, s in curve.edges
                                             for h in (half1(f, s), half2(f, s))])
                  for curve in curves]
    return refined, out_curves


def bisection_codes(base: TriangulatedSurface) -> np.ndarray:
    """One int64 nested-dissection code per face of `base`, by spectral bisection.

    The faces are split recursively until every piece is one face.  A
    piece that falls apart is split into the connected component of its
    first face and the rest; a connected piece at the median of its
    Fiedler vector (Pothen, Simon & Liou, SIMAX 11, 1990), from a dense
    `eigh` of the piece's graph Laplacian.  The vector's sign puts its
    largest entry positive and ties go by face id, so reruns give the
    same codes.  With D the depth of the deepest
    split, the split at depth j sets bit D-1-j of the code, so two faces
    share the top bits of their codes as far as they share pieces.
    """
    adjacency = (base.face_adjacency() > 0).astype(np.float64)
    path = np.zeros(base.num_faces, dtype=np.int64)
    depth = np.zeros(base.num_faces, dtype=np.int64)
    pieces = [np.arange(base.num_faces)]
    while pieces:
        piece = pieces.pop()
        if len(piece) < 2:
            continue
        sub = adjacency[piece][:, piece]
        parts, labels = csgraph.connected_components(sub, directed=False)
        if parts > 1:
            upper = labels != labels[0]
        else:
            laplacian = np.diag(np.asarray(sub.sum(axis=1)).ravel()) - sub.toarray()
            fiedler = eigh(laplacian, subset_by_index=[1, 1])[1][:, 0]
            if fiedler[np.argmax(np.abs(fiedler))] < 0:
                fiedler = -fiedler
            upper = np.zeros(len(piece), dtype=bool)
            upper[np.lexsort((piece, fiedler))[len(piece) // 2:]] = True
        path[piece] = 2 * path[piece] + upper
        depth[piece] += 1
        pieces += [piece[upper], piece[~upper]]
    return path << (depth.max() - depth)


def dissection(surface: TriangulatedSurface, codes) -> np.ndarray:
    """Nested-dissection order of the vertices of a refined surface.

    `surface` is `refine` applied L times to the base whose
    `bisection_codes` are `codes`.  `refine` numbers the children of
    face f 4f..4f+3, so face f descends from base face f >> 2L, and its
    low 2L bits are its path down the quadtree: its code is
    codes[f >> 2L] << 2L | (f & (4^L - 1)).  Every vertex belongs to the
    tree node of the longest common top-bit prefix of its faces' codes,
    which the XOR of their least and greatest code gives.  The order
    lists the vertices children before parents (postorder), ties by
    vertex id, so each node's separator comes after the two halves it
    separates (George, SIAM J. Numer. Anal. 10, 1973).
    """
    codes = np.asarray(codes, dtype=np.int64)
    F, L = surface.num_faces, 0
    while len(codes) * 4**L < F:
        L += 1
    if len(codes) * 4**L != F:
        raise ValueError(f"a surface with {F} faces is not refined from a base with "
                         f"{len(codes)} faces: {F} is not {len(codes)} * 4^L")
    f = np.arange(F)
    leaf = np.repeat(codes[f >> 2 * L] << 2 * L | (f & (4**L - 1)), 3)
    vertex = surface.faces.reshape(-1)
    V = surface.num_vertices
    lo = np.full(V, np.iinfo(np.int64).max)
    hi = np.zeros(V, dtype=np.int64)
    np.minimum.at(lo, vertex, leaf)
    np.maximum.at(hi, vertex, leaf)
    # below: the bits under the vertex's node, all set; lo | below is the
    # node's last leaf, where a postorder visits it.
    below = lo ^ hi
    for shift in (1, 2, 4, 8, 16, 32):
        below |= below >> shift
    return np.lexsort((np.arange(V), below, lo | below))


def prolongation(surface: TriangulatedSurface) -> sparse.csr_matrix:
    """P1 interpolation from `surface` to `refine(surface)`, as a sparse matrix.

    Old vertices keep their values (unit rows) and the midpoint of each
    edge takes the mean of its two ends.  Every edge is seen from its two
    sides, and each side adds a quarter to each end.
    """
    V = surface.num_vertices
    mid = _midpoint_ids(surface)
    ends = surface.faces[:, [[1, 2], [2, 0], [0, 1]]]     # side s: v_{s+1} -> v_{s+2}
    rows = np.concatenate([np.arange(V), np.repeat(mid.reshape(-1), 2)])
    cols = np.concatenate([np.arange(V), ends.reshape(-1)])
    vals = np.concatenate([np.ones(V), np.full(ends.size, 0.25)])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(int(mid.max()) + 1, V))


@dataclass
class SparsePencil:
    """Stiffness/mass pair (K, B) over the mesh vertices."""

    stiffness: sparse.csr_matrix
    mass: sparse.csr_matrix

    @property
    def dof(self) -> int:
        return self.stiffness.shape[0]


def side_weights(lengths) -> np.ndarray:
    """Per-side half-cotangent weights of the Euclidean comparison triangles.

    w[f, k] is cot(angle_k) / 2 for the angle at corner k of face f, and
    couples the two ends of side k (corners k+1 and k+2): the face's
    stiffness is the sum over its sides of w_k (e_i - e_j)(e_i - e_j)^T
    (Pinkall & Polthier, Experiment. Math. 2, 1993).  Weights are
    computed from squared lengths and the Euclidean area, with no
    trigonometric calls: cot(angle_k) = (b^2 + c^2 - a_k^2) / (4 * area).
    """
    L = np.asarray(lengths, dtype=float)
    hypgeom.validate_triangle_lengths(L[..., 0], L[..., 1], L[..., 2])
    sq = L**2
    # Numerically stable Heron form, sides sorted descending.
    srt = np.sort(L, axis=-1)
    x, y, z = srt[..., 2], srt[..., 1], srt[..., 0]
    area4 = np.sqrt((x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z)))
    w = np.empty_like(L)
    for k in range(3):
        w[..., k] = 0.5 * ((sq[..., (k + 1) % 3] + sq[..., (k + 2) % 3] - sq[..., k]) / area4)
    return w


def _group_sums(keys, *values):
    """Sum each of `values` over the groups of equal `keys`.

    Returns the distinct keys ascending and one array of group sums per
    value array.  A group of one or two terms is summed as it comes (a +
    b == b + a bitwise), and a group of three or more in ascending order
    of value, so no sum depends on the order the terms were emitted in.
    The keys are sorted once for all the value arrays.
    """
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=len(keys))
    # Positions of the groups of m >= 3 terms, one (groups, m) block per m.
    blocks = [starts[sizes == m, None] + np.arange(m) for m in np.unique(sizes[sizes >= 3])]
    sums = []
    for vals in values:
        vals = vals[order]
        for pos in blocks:
            vals[pos] = np.sort(vals[pos], axis=1)
        sums.append(np.add.reduceat(vals, starts))
    return keys[starts], sums


def _symmetric_csr(n, pairs, *entries):
    """One n x n CSR matrix per (off, diag) in `entries`, all on one pattern.

    `pairs` are the keys lo * n + hi (lo < hi) of the vertex pairs;
    off[p] goes to both (lo, hi) and (hi, lo), and diag to the diagonal.
    """
    keys = np.concatenate([pairs, pairs % n * n + pairs // n, np.arange(n) * (n + 1)])
    order = np.argsort(keys)
    cols = keys[order]
    del keys
    indptr = np.searchsorted(cols, np.arange(n + 1) * n)
    cols %= n
    return [sparse.csr_matrix((np.concatenate([off, off, diag])[order], cols, indptr),
                              shape=(n, n)) for off, diag in entries]


def assemble(surface: TriangulatedSurface | CutSurface,
             mass: str = "consistent") -> SparsePencil:
    """Assemble the P1 pencil (stiffness, mass) over `surface`.

    mass is "consistent" (exact P1 Gram with hyperbolic areas) or
    "lumped" (row sums moved to the diagonal).  An entry off the
    diagonal sums the sides that join its two vertices, -w per side
    (`side_weights`) in K and T/12 in B, with T the side's face area.
    A diagonal entry sums the corners at its vertex, w_{k+1} + w_{k+2}
    per corner k in K and T/6 in B (T/3 lumped).
    """
    if mass not in ("consistent", "lumped"):
        raise ValueError(f"unknown mass type {mass!r}")
    n = surface.num_vertices
    faces = surface.faces
    areas = (surface.triangle_areas() if isinstance(surface, TriangulatedSurface)
             else hypgeom.triangle_areas(surface.lengths))
    w = side_weights(surface.lengths)
    # Corner k of a face ends its sides k+1 and k+2, and side k joins
    # its corners k+1 and k+2.
    nxt, prv = [1, 2, 0], [2, 0, 1]
    _, (k_diag, b_diag) = _group_sums(faces.reshape(-1), (w[:, nxt] + w[:, prv]).reshape(-1),
                                      np.repeat(areas / (3.0 if mass == "lumped" else 6.0), 3))
    a, b = faces[:, nxt], faces[:, prv]
    # 0.0 - w, not -w: a zero weight gives +0.0, as in the element-matrix sum.
    pairs, (k_off, b_off) = _group_sums((np.minimum(a, b) * n + np.maximum(a, b)).reshape(-1),
                                        0.0 - w.reshape(-1), np.repeat(areas / 12.0, 3))
    del w, a, b
    if mass == "lumped":
        (K,) = _symmetric_csr(n, pairs, (k_off, k_diag))
        B = sparse.csr_matrix((b_diag, np.arange(n), np.arange(n + 1)), shape=(n, n))
    else:
        K, B = _symmetric_csr(n, pairs, (k_off, k_diag), (b_off, b_diag))
    return SparsePencil(stiffness=K, mass=B)
