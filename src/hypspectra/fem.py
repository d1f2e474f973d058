"""Midpoint refinement and piecewise-linear finite element pencils.

Refinement replaces each triangle by four children using the exact
hyperbolic midlines, so the refined mesh is again a valid
length-surface with untouched cone angles and total area.  No
coordinates are involved; child side lengths come from closed-form
identities on the parent lengths.

The stiffness matrix uses the cotangent weights of the Euclidean
comparison triangle of each face (the Euclidean triangle with the same
side lengths), while the mass matrix uses the hyperbolic triangle
areas.  Matrix entries are accumulated in a canonical order, which
makes assembly invariant under any relabeling of faces: permuting the
mesh by a symmetry permutes the matrices exactly, with bitwise-equal
entries.  The element terms are sorted once by (row, column), and only
the entries with three or more terms are then sorted by value.  The sum
of one or two terms does not depend on their order (a + b == b + a
bitwise in IEEE arithmetic), so every entry has the same bits whatever
order the faces come in, and a relabeled mesh gives the permuted matrix
bit for bit.

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
    "element_mass",
    "element_stiffness",
    "prolongation",
    "refine",
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


def element_stiffness(lengths) -> np.ndarray:
    """Per-face 3x3 cotangent stiffness of the Euclidean comparison triangle.

    Entry (i, j) couples local corners i and j.  Weights are computed
    from squared lengths and the Euclidean area, with no trigonometric
    calls: cot(angle_k) = (b^2 + c^2 - a_k^2) / (4 * area).
    """
    L = np.asarray(lengths, dtype=float)
    hypgeom.validate_triangle_lengths(L[..., 0], L[..., 1], L[..., 2])
    sq = L**2
    # Numerically stable Heron form, sides sorted descending.
    srt = np.sort(L, axis=-1)
    x, y, z = srt[..., 2], srt[..., 1], srt[..., 0]
    area4 = np.sqrt((x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z)))
    cots = np.empty_like(L)
    for k in range(3):
        cots[..., k] = (sq[..., (k + 1) % 3] + sq[..., (k + 2) % 3] - sq[..., k]) / area4
    elem = np.zeros(L.shape[:-1] + (3, 3))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        w = 0.5 * cots[..., k]
        elem[..., i, j] -= w
        elem[..., j, i] -= w
        elem[..., i, i] += w
        elem[..., j, j] += w
    return elem


def element_mass(lengths) -> np.ndarray:
    """Per-face 3x3 consistent mass using the hyperbolic triangle area."""
    L = np.asarray(lengths, dtype=float)
    T = hypgeom.triangle_areas(L)
    elem = np.zeros(L.shape[:-1] + (3, 3))
    for i in range(3):
        for j in range(3):
            elem[..., i, j] = T / (6.0 if i == j else 12.0)
    return elem


def _canonical_sum(rows, cols, n):
    """Summation of COO triples over one pattern: returns vals -> CSR.

    The triples are sorted once, stably, by the key row*n + col.  Each
    group of three or more terms is then sorted by value, stably, so it
    is summed in the same order whatever order the elements were emitted
    in.  A group of two needs no sort: a + b == b + a bitwise.  The
    order is computed once and serves every value array over the pattern.
    """
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=len(keys))
    # Positions of the groups of m >= 3 terms, one (groups, m) block per m.
    blocks = [starts[sizes == m, None] + np.arange(m) for m in np.unique(sizes[sizes >= 3])]
    unique = keys[starts]
    indptr = np.searchsorted(unique, np.arange(n + 1) * n)
    indices = unique % n

    def to_csr(vals) -> sparse.csr_matrix:
        vals = vals[order]
        for pos in blocks:
            vals[pos] = np.sort(vals[pos], axis=1, kind="stable")
        return sparse.csr_matrix((np.add.reduceat(vals, starts), indices, indptr),
                                 shape=(n, n))

    return to_csr


def assemble(surface: TriangulatedSurface | CutSurface,
             mass: str = "consistent") -> SparsePencil:
    """Assemble the P1 pencil (stiffness, mass) over `surface`.

    mass is "consistent" (exact P1 Gram with hyperbolic areas) or
    "lumped" (row sums moved to the diagonal).
    """
    if mass not in ("consistent", "lumped"):
        raise ValueError(f"unknown mass type {mass!r}")
    n = surface.num_vertices
    ek = element_stiffness(surface.lengths)
    loc_i = np.broadcast_to(np.arange(3)[:, None], (3, 3))
    loc_j = np.broadcast_to(np.arange(3)[None, :], (3, 3))
    rows = surface.faces[:, loc_i].reshape(-1)
    cols = surface.faces[:, loc_j].reshape(-1)
    pattern = _canonical_sum(rows, cols, n)
    K = pattern(ek.reshape(-1))
    if mass == "lumped":
        diag = surface.faces.reshape(-1)
        third = np.repeat(hypgeom.triangle_areas(surface.lengths) / 3.0, 3)
        B = _canonical_sum(diag, diag, n)(third)
    else:
        B = pattern(element_mass(surface.lengths).reshape(-1))
    return SparsePencil(stiffness=K, mass=B)

