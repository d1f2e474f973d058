"""Triangulated closed hyperbolic surfaces stored as combinatorics + edge lengths.

A surface is a list of triangles, a per-triangle triple of side lengths
(entry k is the length of the edge opposite corner k), and an explicit
involutive gluing of oriented triangle sides.  No global coordinates are
ever stored; every geometric quantity is recomputed from lengths.

Side convention: side k of face (v0, v1, v2) is the edge opposite corner
k, directed (v_{k+1} -> v_{k+2}).  All faces are kept coherently
oriented, so each undirected edge appears exactly once in each
direction.  Two edges may join the same two vertices, so a curve is its
list of directed sides (face, side), not its vertex cycle.

Cutting along a curve unglues its sides and splits each curve vertex by
corner classes: the corners of its star that stay joined across glued
sides.  The class on the right of the curve takes a fresh vertex id.

The genus-2 builder glues two pairs of pants along three cuffs.  Each
pants is a pair of congruent right-angled hexagons joined along their
seams, and each hexagon is triangulated by a fan from an interior
centroid point, which makes every cone angle exactly 2*pi: fan angles
close up at the centroid, boundary subdivision points see a straight
angle from each side, and hexagon corners contribute four right angles.
Orientation and vertex identification hold by construction: the second
hexagon of each pants is the mirror image of the first, so its triangles
are listed in reverse, and the surface's vertices are the connected
components of the seam and cuff identifications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import hypgeom

LENGTH_PAIR_TOL = 1e-10
CONE_ANGLE_TOL = 1e-8
AREA_TOL = 1e-8
CURVE_LENGTH_TOL = 1e-9

__all__ = [
    "CurveError",
    "CutSurface",
    "FenchelNielsenSpec",
    "MeshCurve",
    "MeshError",
    "TriangulatedSurface",
    "build_surface",
    "curve_from_sides",
    "cut_along",
    "write_hypmesh",
]


class MeshError(ValueError):
    """The mesh data violates a structural or geometric invariant."""


class CurveError(ValueError):
    """A curve is malformed or unsuitable for the requested operation."""


class TriangulatedSurface:
    """Closed oriented triangulated surface with hyperbolic edge lengths.

    Parameters
    ----------
    faces : (F, 3) int array
        Vertex ids per triangle; ids must be contiguous 0..V-1.
    lengths : (F, 3) float array
        lengths[f, k] is the length of the side opposite corner k.
    glue : (F, 3, 2) int array
        glue[f, s] = (f', s') pairs side s of face f with side s' of
        face f'.  Must be a fixed-point-free involution covering every
        side, with equal lengths and opposite directed edges on paired
        sides.

    The constructor runs `validate`, so every instance is a valid mesh.
    """

    def __init__(self, faces, lengths, glue):
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        self.lengths = np.ascontiguousarray(lengths, dtype=np.float64)
        self.glue = np.ascontiguousarray(glue, dtype=np.int64)
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must have shape (F, 3)")
        if self.lengths.shape != self.faces.shape:
            raise MeshError("lengths must have shape (F, 3)")
        if self.glue.shape != (*self.faces.shape, 2):
            raise MeshError("glue must have shape (F, 3, 2)")
        self.num_faces = int(self.faces.shape[0])
        self.num_vertices = int(self.faces.max()) + 1 if self.num_faces else 0
        self._angles = None
        self._areas = None
        self._vertex_graph = None
        self.validate()

    # -- derived quantities -------------------------------------------------

    @property
    def num_edges(self) -> int:
        return 3 * self.num_faces // 2

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    @property
    def genus(self) -> int:
        chi = self.euler_characteristic()
        return (2 - chi) // 2

    def corner_angles(self) -> np.ndarray:
        if self._angles is None:
            self._angles = hypgeom.corner_angles(self.lengths)
        return self._angles

    def triangle_areas(self) -> np.ndarray:
        if self._areas is None:
            self._areas = hypgeom.triangle_areas(self.lengths)
        return self._areas

    def total_area(self) -> float:
        return float(self.triangle_areas().sum())

    def cone_angles(self) -> np.ndarray:
        out = np.zeros(self.num_vertices)
        np.add.at(out, self.faces.ravel(), self.corner_angles().ravel())
        return out

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        faces, lengths, glue = self.faces, self.lengths, self.glue
        F = self.num_faces
        if F == 0 or F % 2:
            raise MeshError("a closed surface needs a positive even number of faces")
        # num_vertices is faces.max() + 1, so no id lies above V-1.
        if faces.min() < 0 or not np.all(np.bincount(faces.ravel(),
                                                     minlength=self.num_vertices)):
            raise MeshError("vertex ids must be contiguous 0..V-1")
        # `fem.assemble` keys each side by its two distinct ends.
        repeats = faces == np.roll(faces, 1, axis=1)
        if repeats.any():
            f, k = np.argwhere(repeats)[0]
            raise MeshError(f"face {f} has vertex {faces[f, k]} at two corners")
        gf, gs = glue[..., 0], glue[..., 1]
        missing = (gf < 0) | (gf >= F) | (gs < 0) | (gs > 2)
        if missing.any():
            f, s = np.argwhere(missing)[0]
            raise MeshError(f"side {s} of face {f} is not glued to an existing side")
        fgrid = np.broadcast_to(np.arange(F)[:, None], (F, 3))
        sgrid = np.broadcast_to(np.arange(3)[None, :], (F, 3))
        if np.any((gf == fgrid) & (gs == sgrid)):
            raise MeshError("gluing has a fixed point (side glued to itself)")
        back_f = gf[gf, gs]
        back_s = gs[gf, gs]
        if not (np.array_equal(back_f, fgrid) and np.array_equal(back_s, sgrid)):
            bad = np.argwhere((back_f != fgrid) | (back_s != sgrid))[0]
            raise MeshError(f"gluing is not involutive at face {bad[0]} side {bad[1]}")
        plen = lengths[gf, gs]
        if np.any(np.abs(plen - lengths) > LENGTH_PAIR_TOL * np.maximum(1.0, lengths)):
            bad = np.argwhere(np.abs(plen - lengths) > LENGTH_PAIR_TOL * np.maximum(1.0, lengths))[0]
            raise MeshError(f"paired sides carry different lengths at face {bad[0]} side {bad[1]}")
        # Orientation: paired directed edges must be mutual reverses.
        head = faces[fgrid, (sgrid + 1) % 3]
        tail = faces[fgrid, (sgrid + 2) % 3]
        if not (np.array_equal(head[gf, gs], tail) and np.array_equal(tail[gf, gs], head)):
            raise MeshError("paired sides do not carry opposite directed edges "
                            "(mesh not coherently oriented or vertex ids inconsistent)")
        chi = self.euler_characteristic()
        if chi % 2 or chi > -2:
            raise MeshError(f"Euler characteristic {chi} is not that of a closed "
                            "orientable hyperbolic surface")
        cone = self.cone_angles()
        worst = float(np.max(np.abs(cone - 2 * math.pi)))
        if worst > CONE_ANGLE_TOL:
            v = int(np.argmax(np.abs(cone - 2 * math.pi)))
            raise MeshError(f"cone angle at vertex {v} is 2*pi{cone[v] - 2 * math.pi:+.3e}")
        area = self.total_area()
        if abs(area - (-2 * math.pi * chi)) > AREA_TOL:
            raise MeshError(
                f"Gauss-Bonnet violated: area {area!r} vs -2*pi*chi {-2 * math.pi * chi!r}")

    # -- lookup helpers -----------------------------------------------------

    def canonical_sides(self) -> np.ndarray:
        """(E, 2) array of (face, side) pairs, one per undirected edge."""
        gf, gs = self.glue[..., 0], self.glue[..., 1]
        F = self.num_faces
        fgrid = np.broadcast_to(np.arange(F)[:, None], (F, 3))
        sgrid = np.broadcast_to(np.arange(3)[None, :], (F, 3))
        keep = (fgrid < gf) | ((fgrid == gf) & (sgrid < gs))
        return np.stack([fgrid[keep], sgrid[keep]], axis=1)

    def vertex_graph(self) -> sparse.csr_matrix:
        """Symmetric sparse matrix of edge lengths between vertex ids.

        Every edge enters from both of its sides.  A vertex pair keeps
        the minimum length over its entries, both sides of an edge and
        any parallel edges, which is what shortest-path queries need.
        """
        if self._vertex_graph is None:
            self._vertex_graph = _length_graph(self.faces, self.lengths, self.num_vertices)
        return self._vertex_graph

    def face_adjacency(self, exclude_sides=()) -> sparse.csr_matrix:
        """Unweighted face adjacency; `exclude_sides` sides are not crossed.

        Row f stores one float entry per side of face f, in side order: 1
        at the face across it, or 0 on the diagonal if it is not crossed.
        Every side is glued, so the matrix is symmetric; it needs no
        sorting, and csgraph reads its float data without a copy.
        """
        n = self.num_faces
        cross = np.ones((n, 3))
        excl = np.asarray(exclude_sides, dtype=np.int64).reshape(-1, 2)
        partner = self.glue[excl[:, 0], excl[:, 1]]
        cross[excl[:, 0], excl[:, 1]] = 0
        cross[partner[:, 0], partner[:, 1]] = 0
        across = np.where(cross, self.glue[..., 0], np.arange(n)[:, None])
        return sparse.csr_matrix((cross.ravel(), across.ravel(), np.arange(0, 3 * n + 1, 3)),
                                 shape=(n, n))


def _length_graph(faces, lengths, num_vertices) -> sparse.csr_matrix:
    """Symmetric edge-length matrix over every side; parallel edges keep the minimum."""
    f, s = np.indices(faces.shape).reshape(2, -1)
    u = faces[f, (s + 1) % 3]
    v = faces[f, (s + 2) % 3]
    w = lengths[f, s]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    first = np.ones(len(lo), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    starts = np.flatnonzero(first)
    wmin = np.minimum.reduceat(w, starts)
    lo, hi = lo[starts], hi[starts]
    mat = sparse.coo_matrix((wmin, (lo, hi)), shape=(num_vertices, num_vertices))
    return (mat + mat.T).tocsr()


@dataclass(frozen=True)
class MeshCurve:
    """A closed simple cycle of mesh edges; made by `curve_from_sides`.

    edges[j] = (face, side) is the directed side from vertices[j] to
    vertices[j+1] (cyclically), and length is the sum of their lengths.
    """

    vertices: tuple
    edges: tuple
    length: float


def curve_from_sides(surface: TriangulatedSurface, sides) -> MeshCurve:
    """The closed simple curve along the directed sides (face, side) of `surface`.

    The sides are taken exactly as given, so parallel edges between the
    same two vertices stay apart.  Raises CurveError unless each side
    ends where the next begins, the last where the first begins, no
    vertex is visited twice, and no two sides are one edge's two sides.
    """
    edges = tuple((int(f), int(s)) for f, s in sides)
    if len(edges) < 2:
        raise CurveError("a closed curve needs at least two edges")
    faces = surface.faces
    verts = tuple(int(faces[f, (s + 1) % 3]) for f, s in edges)
    if any(int(faces[f, (s + 2) % 3]) != verts[(j + 1) % len(verts)]
           for j, (f, s) in enumerate(edges)):
        raise CurveError("edges do not chain into a closed cycle")
    if len(set(verts)) != len(verts):
        raise CurveError("curve visits a vertex twice (not simple)")
    if any(tuple(surface.glue[f, s]) in edges for f, s in edges):
        raise CurveError("curve runs along one edge there and back: two of its "
                         "sides are glued to each other (not simple)")
    length = float(sum(surface.lengths[f, s] for f, s in edges))
    return MeshCurve(verts, edges, length)


# -- Fenchel-Nielsen builder -------------------------------------------------


@dataclass(frozen=True)
class FenchelNielsenSpec:
    """Gluing data for the genus-2 two-pants surface.

    cuff_lengths are the three closed-geodesic lengths shared by both
    pants; twists are integers in units of the cuff subdivision spacing
    (cuff i is rotated by twists[i] * cuff_lengths[i] / segments before
    gluing); segments is the number of mesh edges around each cuff and
    must be even so the two hexagon corners land on subdivision points.
    """

    cuff_lengths: tuple
    twists: tuple = (0, 0, 0)
    segments: int = 8

    def __post_init__(self):
        if len(self.cuff_lengths) != 3 or any(l <= 0 or not math.isfinite(l)
                                              for l in self.cuff_lengths):
            raise MeshError("need three positive finite cuff lengths")
        if len(self.twists) != 3 or any(t != int(t) for t in self.twists):
            raise MeshError("need three integer twists")
        if self.segments < 4 or self.segments % 2:
            raise MeshError("segments must be even and at least 4")


class _HexagonFan:
    """Side lengths, subdivision `spacing` and centroid `spokes` of a right-angled hexagon.

    The corner spokes are `hypgeom.hexagon_centroid_distances`.
    """

    def __init__(self, l1: float, l2: float, l3: float, m: int):
        x12 = hypgeom.hexagon_seam_length(l1, l2, l3)
        x23 = hypgeom.hexagon_seam_length(l2, l3, l1)
        x31 = hypgeom.hexagon_seam_length(l3, l1, l2)
        self.side_lengths = np.array([l1 / 2, x12, l2 / 2, x23, l3 / 2, x31])
        target = (l1 + l2 + l3) / (3 * m)
        self.counts = [
            m // 2 if q % 2 == 0 else max(1, math.ceil(self.side_lengths[q] / target))
            for q in range(6)
        ]
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.boundary_count = int(self.offsets[-1])

        self.spacing = self.side_lengths / np.array(self.counts, dtype=float)
        corner_dist = hypgeom.hexagon_centroid_distances(self.side_lengths)
        # Spoke lengths are propagated around the boundary in intrinsic
        # variables: the spoke r at the running corner and the versine
        # 1 - cos(phi) of the angle between the outgoing side and the spoke.
        # Within a side, cosh r(x) - 1 = coshm1(r - x) + sinh r sinh x versin
        # (law of cosines), and at each corner the next versine comes from
        # the exact right angle, phi_next = pi/2 - phi_far.  Adjacent sides
        # therefore agree about shared corner spokes to roundoff, which the
        # sliver fan triangles along long sides would otherwise amplify into
        # visible cone-angle defects.
        S = self.side_lengths
        r = float(corner_dist[0])

        def corner_versin(r_here, r_there, s):
            # versine of the angle between side s and the spoke r_here, in
            # the triangle (spoke r_here, side s, spoke r_there)
            m1 = 0.5 * (r_there + r_here - s)
            m2 = 0.5 * (r_there - r_here + s)
            return 2.0 * math.sinh(m1) * math.sinh(m2) / (math.sinh(r_here) * math.sinh(s))

        versin = corner_versin(r, float(corner_dist[1]), S[0])
        self.spokes = np.empty(self.boundary_count)
        for q in range(6):
            cnt = self.counts[q]
            x = S[q] * np.arange(1, cnt) / cnt
            with np.errstate(over="ignore", invalid="ignore"):
                u = hypgeom.coshm1(r - x) + math.sinh(r) * np.sinh(x) * versin
                u_far = hypgeom.coshm1(r - S[q]) + math.sinh(r) * math.sinh(S[q]) * versin
            # acosh1p squares u, so u must lie in [0, 1e150); a negative u
            # has left the hexagon, and a huge one the float64 range.
            if not (np.all((u >= 0) & (u < 1e150)) and 0 <= u_far < 1e150):
                raise hypgeom.GeometryError(
                    "spoke propagation left the domain of arccosh(1 + u), 0 <= u < 1e150")
            o = int(self.offsets[q])
            self.spokes[o] = r
            self.spokes[o + 1:o + cnt] = hypgeom.acosh1p(u)
            r_far = float(hypgeom.acosh1p(u_far))
            v_far = corner_versin(r_far, r, S[q])
            drift = abs(r_far - corner_dist[(q + 1) % 6])
            if drift > 1e-9 * max(1.0, r_far) or not 0.0 <= v_far <= 2.0:
                raise hypgeom.GeometryError(
                    "spoke propagation drifted away from hexagon corner positions")
            sin_far = math.sqrt(v_far * (2.0 - v_far))
            r, versin = r_far, (1.0 - v_far) ** 2 / (1.0 + sin_far)


def build_surface(spec: FenchelNielsenSpec):
    """Build the genus-2 surface and its designated cuff curve.

    Returns (surface, gamma) where gamma is cuff 1 realized as a cycle
    of `segments` mesh edges of total length cuff_lengths[0].
    """
    l1, l2, l3 = (float(x) for x in spec.cuff_lengths)
    m = int(spec.segments)
    m2 = m // 2
    hexfan = _HexagonFan(l1, l2, l3, m)
    B = hexfan.boundary_count

    # Hexagon t = 2p, 2p+1 of pants p owns faces t*B + j and vertices
    # t*(B+1) + j: boundary point j < B, and the centroid at j = B.  `vid`
    # and `fid` take a boundary index j modulo B.
    def vid(t, j):
        return t * (B + 1) + j % B

    def fid(t, j):
        return t * B + j % B

    num_faces = 4 * B
    faces = np.empty((num_faces, 3), dtype=np.int64)
    lengths = np.empty((num_faces, 3), dtype=np.float64)
    glue = np.full((num_faces, 3, 2), -1, dtype=np.int64)

    def glue_pair(f, s, g, r):
        glue[f, s, 0], glue[f, s, 1] = g, r
        glue[g, r, 0], glue[g, r, 1] = f, s

    j = np.arange(B)
    q = np.searchsorted(hexfan.offsets, j, side="right") - 1
    fan = np.stack([np.full(B, B), j, (j + 1) % B], axis=1)
    fan_lengths = np.stack([hexfan.spacing[q], hexfan.spokes[(j + 1) % B], hexfan.spokes[j]],
                           axis=1)
    # Hexagon 2p+1 is the mirror image of hexagon 2p, so its triangles are
    # listed the other way round (corners 1 and 2 trade places, with their
    # opposite sides); then every pants is coherently oriented as built.
    for t in range(4):
        order = [0, 1, 2] if t % 2 == 0 else [0, 2, 1]
        faces[fid(t, j)] = t * (B + 1) + fan[:, order]
        lengths[fid(t, j)] = fan_lengths[:, order]
        glue_pair(fid(t, j), order[1], fid(t, j + 1), order[2])

    same = []    # (hexagon vertex, hexagon vertex) pairs that are one surface vertex

    # Seams: within each pants, hexagons 2p and 2p+1 join along sides 1, 3, 5,
    # matching subdivision points index-for-index from the shared corner.
    for p in range(2):
        a, b = 2 * p, 2 * p + 1
        for q in (1, 3, 5):
            i = hexfan.offsets[q] + np.arange(hexfan.counts[q] + 1)
            same.append((vid(a, i), vid(b, i)))
            glue_pair(fid(a, i[:-1]), 0, fid(b, i[:-1]), 0)

    def cuff_circle(p: int, q: int):
        a, b = 2 * p, 2 * p + 1
        i = hexfan.offsets[q] + np.arange(m2 + 1)
        verts = np.concatenate([vid(a, i), vid(b, i[-2:0:-1])])
        edge_faces = np.concatenate([fid(a, i[:-1]), fid(b, i[-2::-1])])
        return verts, edge_faces

    # Cuffs: pants 0 circle glued to the reversed pants 1 circle, shifted by
    # the integer twist.  Reversal keeps the closed surface orientable.
    k = np.arange(m)
    for ci, q in enumerate((0, 2, 4)):
        tw = int(spec.twists[ci])
        v0, e0 = cuff_circle(0, q)
        v1, e1 = cuff_circle(1, q)
        same.append((v0, v1[(tw - k) % m]))
        glue_pair(e0, 0, e1[(tw - k - 1) % m], 0)
        if ci == 0:
            gamma_faces = e0

    # Surface vertices are the classes of `same`, numbered in the order of
    # their smallest hexagon vertex.
    n = 4 * (B + 1)
    u, v = np.concatenate(same, axis=1)
    merge = sparse.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    _, label = csgraph.connected_components(merge, directed=False)

    surface = TriangulatedSurface(label[faces], lengths, glue)
    gamma = curve_from_sides(surface, [(f, 0) for f in gamma_faces])
    if abs(gamma.length - l1) > CURVE_LENGTH_TOL:
        raise MeshError(f"cuff curve length {gamma.length!r} deviates from {l1!r}")
    return surface, gamma


# -- cutting ------------------------------------------------------------------


@dataclass
class CutSurface:
    """A surface cut open along a curve, with the two boundary circles tracked.

    Boundary sides have glue entry (-1, -1).  Edge i of both boundary
    lists is the copy of curve edge i; left keeps the original vertex
    ids, right uses fresh ids V+j for curve vertex j.  base_vertex maps
    every cut vertex id to the vertex of the uncut surface it came from,
    and curve_length is the length of the curve cut along.
    """

    faces: np.ndarray
    lengths: np.ndarray
    glue: np.ndarray
    num_vertices: int
    left_edges: list
    right_edges: list
    left_vertices: list
    right_vertices: list
    base_vertex: np.ndarray
    curve_length: float

    def vertex_graph(self) -> sparse.csr_matrix:
        """Edge-length matrix like `TriangulatedSurface.vertex_graph`.

        A boundary edge enters from its one side.
        """
        return _length_graph(self.faces, self.lengths, self.num_vertices)


def cut_along(surface: TriangulatedSurface, curve: MeshCurve) -> CutSurface:
    """Cut a closed surface open along a non-separating simple curve.

    With the curve's sides unglued, the corners at curve vertex j that
    stay joined across glued sides form two classes.  The class holding
    the corner of right_edges[j] at vertex j takes the fresh id V+j; the
    class left of the curve keeps the vertex's id.
    """
    adj = surface.face_adjacency(exclude_sides=curve.edges)
    if csgraph.breadth_first_order(adj, 0, return_predecessors=False).size < surface.num_faces:
        raise CurveError("curve is separating; cutting would disconnect the surface")
    faces = surface.faces.copy()
    glue = surface.glue.copy()
    V = surface.num_vertices
    c = len(curve.edges)
    left = np.array(curve.edges, dtype=np.int64)
    right = glue[left[:, 0], left[:, 1]]
    glue[left[:, 0], left[:, 1]] = -1
    glue[right[:, 0], right[:, 1]] = -1
    # The corners of the curve vertices' stars, numbered in (face, corner)
    # order.  Crossing side k+2 of face f from corner k lands on corner r+2
    # of the side r it is glued to.
    on_curve = np.zeros(V, dtype=bool)
    on_curve[list(curve.vertices)] = True
    f, k = np.nonzero(on_curve[faces])
    corner = 3 * f + k
    g, r = glue[f, (k + 2) % 3].T
    crossed = np.flatnonzero(g >= 0)
    n = len(corner)
    to = np.searchsorted(corner, 3 * g[crossed] + (r[crossed] + 2) % 3)
    join = sparse.coo_matrix((np.ones(len(crossed)), (crossed, to)), shape=(n, n))
    _, label = csgraph.connected_components(join, directed=False)
    fresh = np.full(n, -1, dtype=np.int64)
    right_corner = np.searchsorted(corner, 3 * right[:, 0] + (right[:, 1] + 2) % 3)
    fresh[label[right_corner]] = V + np.arange(c)
    new_id = fresh[label]
    moved = new_id >= 0
    faces[f[moved], k[moved]] = new_id[moved]
    cut = CutSurface(
        faces=faces,
        lengths=surface.lengths.copy(),
        glue=glue,
        num_vertices=V + c,
        left_edges=list(curve.edges),
        right_edges=[(int(g), int(r)) for g, r in right],
        left_vertices=list(curve.vertices),
        right_vertices=[V + j for j in range(c)],
        base_vertex=np.concatenate([np.arange(V), np.array(curve.vertices, dtype=np.int64)]),
        curve_length=curve.length,
    )
    # The two boundary circles must have the expected endpoints.
    for j, (f, s) in enumerate(cut.left_edges):
        w, w2 = curve.vertices[j], curve.vertices[(j + 1) % c]
        if (faces[f, (s + 1) % 3], faces[f, (s + 2) % 3]) != (w, w2):
            raise MeshError("left boundary lost its original vertex ids")
    for j, (g, r) in enumerate(cut.right_edges):
        wp, wp2 = V + j, V + (j + 1) % c
        if (faces[g, (r + 1) % 3], faces[g, (r + 2) % 3]) != (wp2, wp):
            raise MeshError("right boundary did not pick up duplicated vertex ids")
    return cut


# -- HYPMESH serialization -----------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_hypmesh(path, surface: TriangulatedSurface, curves=None) -> None:
    """Write a surface and optional named curves as a HYPMESH file.

    Layout: header `HYPMESH 1`, count line `F <faces> G <genus>`, one
    line per face `v0 v1 v2 len0 len1 len2`, one line per undirected
    edge `f1 side1 f2 side2`, then optional named `CURVE` blocks.
    Lines starting with `#` are comments.  Output bytes are
    deterministic for identical inputs.
    """
    lines = ["HYPMESH 1", f"F {surface.num_faces} G {surface.genus}"]
    lines.append(f"# area={_fmt(surface.total_area())}")
    for f in range(surface.num_faces):
        v = surface.faces[f]
        l = surface.lengths[f]
        lines.append(f"{v[0]} {v[1]} {v[2]} {_fmt(l[0])} {_fmt(l[1])} {_fmt(l[2])}")
    for f, s in surface.canonical_sides():
        g, r = surface.glue[f, s]
        lines.append(f"{f} {s} {g} {r}")
    for name, curve in (curves or {}).items():
        if any(ch.isspace() for ch in name):
            raise CurveError(f"curve name {name!r} must not contain whitespace")
        lines.append(f"CURVE {name} {len(curve.edges)}")
        lines.extend(f"{f} {s}" for f, s in curve.edges)
    data = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(data)
