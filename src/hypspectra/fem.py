"""Midpoint refinement and piecewise-linear finite element pencils.

Refinement replaces each triangle by four children using the exact
hyperbolic midlines, so the refined mesh is again a valid
length-surface with untouched cone angles and total area.  No
coordinates are involved; child side lengths come from closed-form
identities on the parent lengths.

The stiffness matrix uses the cotangent weights of the Euclidean
comparison triangle of each face (the Euclidean triangle with the same
side lengths), while the mass matrix uses the hyperbolic triangle
areas.  Matrix entries are accumulated in a canonical order (sorted by
row, column, then value), which makes assembly invariant under any
relabeling of faces: permuting the mesh by a symmetry permutes the
matrices exactly, with bitwise-equal entries.

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

from . import hypgeom
from .surface import CutSurface, MeshCurve, TriangulatedSurface

__all__ = [
    "SparsePencil",
    "assemble",
    "element_mass",
    "element_stiffness",
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
    keeps parent corner k.  Each curve in `curves` is carried along by
    replacing every edge with its two halves, and the refined curves
    are returned in the same order.  Subdivision does not change the
    topology, so each keeps its `separating` flag.
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

    out_curves = []
    for curve in curves:
        edges = []
        verts = []
        for j, (f, s) in enumerate(curve.edges):
            edges.append(half1(f, s))
            edges.append(half2(f, s))
            verts.append(curve.vertices[j])
            verts.append(int(mid[f, s]))
        length = float(sum(refined.lengths[f, s] for f, s in edges))
        out_curves.append(MeshCurve(tuple(verts), tuple(edges), length,
                                    separating=curve.separating))
    return refined, out_curves


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


def element_mass(lengths, lumped: bool = False) -> np.ndarray:
    """Per-face 3x3 mass using the hyperbolic triangle area."""
    L = np.asarray(lengths, dtype=float)
    T = hypgeom.triangle_areas(L)
    elem = np.zeros(L.shape[:-1] + (3, 3))
    if lumped:
        for i in range(3):
            elem[..., i, i] = T / 3.0
    else:
        for i in range(3):
            for j in range(3):
                elem[..., i, j] = T / (6.0 if i == j else 12.0)
    return elem


def _canonical_csr(rows, cols, vals, n) -> sparse.csr_matrix:
    """COO triples to CSR with a value-canonical summation order.

    Triples are sorted by (row, col, value) before duplicate entries
    are added, so the result does not depend on the order in which
    elements were emitted.  Relabeling the mesh by a permutation P then
    reproduces the matrix exactly: P^T A P has bitwise-equal entries.
    """
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    summed = np.add.reduceat(vals, starts)
    mat = sparse.csr_matrix((summed, (rows[starts], cols[starts])), shape=(n, n))
    mat.sum_duplicates()
    return mat


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
    K = _canonical_csr(rows, cols, ek.reshape(-1), n)
    if mass == "lumped":
        diag = surface.faces.reshape(-1)
        third = np.repeat(hypgeom.triangle_areas(surface.lengths) / 3.0, 3)
        B = _canonical_csr(diag, diag, third, n)
    else:
        em = element_mass(surface.lengths)
        B = _canonical_csr(rows, cols, em.reshape(-1), n)
    return SparsePencil(stiffness=K, mass=B)

