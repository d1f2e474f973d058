"""Triangulated closed hyperbolic surfaces stored as combinatorics + edge lengths.

A surface is a list of triangles, a per-triangle triple of side lengths
(entry k is the length of the edge opposite corner k), and an explicit
involutive gluing of oriented triangle sides.  No global coordinates are
ever stored; every geometric quantity is recomputed from lengths.

Side convention: side k of face (v0, v1, v2) is the edge opposite corner
k, directed (v_{k+1} -> v_{k+2}).  All faces are kept coherently
oriented, so each undirected edge appears exactly once in each
direction and a directed edge identifies a unique (face, side).

The genus-2 builder glues two pairs of pants along three cuffs.  Each
pants is a pair of congruent right-angled hexagons joined along their
seams, and each hexagon is triangulated by a fan from an interior
centroid point, which makes every cone angle exactly 2*pi: fan angles
close up at the centroid, boundary subdivision points see a straight
angle from each side, and hexagon corners contribute four right angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import hypgeom

LENGTH_PAIR_TOL = 1e-10
CONE_ANGLE_TOL = 1e-8
AREA_TOL = 1e-8
CURVE_LENGTH_TOL = 1e-9

GENUS2_TWO_PANTS = "genus2-two-pants"

__all__ = [
    "CurveError",
    "CutSurface",
    "FenchelNielsenSpec",
    "MeshCurve",
    "MeshError",
    "TriangulatedSurface",
    "build_surface",
    "curve_from_vertex_cycle",
    "cut_along",
    "euler_characteristic",
    "read_hypmesh",
    "surfaces_combinatorially_equal",
    "total_area",
    "write_hypmesh",
]


class MeshError(ValueError):
    """The mesh data violates a structural or geometric invariant."""


class CurveError(ValueError):
    """A curve is malformed or unsuitable for the requested operation."""


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


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
    """

    def __init__(self, faces, lengths, glue, validate: bool = True):
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
        self._directed = None
        self._vertex_graph = None
        if validate:
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
        used = np.unique(faces)
        if used[0] != 0 or used[-1] != self.num_vertices - 1 or len(used) != self.num_vertices:
            raise MeshError("vertex ids must be contiguous 0..V-1")
        gf, gs = glue[..., 0], glue[..., 1]
        if gf.min() < 0 or gf.max() >= F or gs.min() < 0 or gs.max() > 2:
            raise MeshError("gluing refers to a side that does not exist")
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

    def directed_edge_map(self) -> dict:
        """dict mapping directed edge (u, v) -> (face, side)."""
        if self._directed is None:
            F = self.num_faces
            m = {}
            faces = self.faces
            for s in range(3):
                heads = faces[:, (s + 1) % 3]
                tails = faces[:, (s + 2) % 3]
                for f in range(F):
                    m[(int(heads[f]), int(tails[f]))] = (f, s)
            self._directed = m
        return self._directed

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

        Parallel mesh edges between the same vertex pair keep the
        minimum length, which is what shortest-path queries need.
        """
        if self._vertex_graph is None:
            sides = self.canonical_sides()
            f, s = sides[:, 0], sides[:, 1]
            u = self.faces[f, (s + 1) % 3]
            v = self.faces[f, (s + 2) % 3]
            w = self.lengths[f, s]
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            order = np.lexsort((hi, lo))
            lo, hi, w = lo[order], hi[order], w[order]
            first = np.ones(len(lo), dtype=bool)
            first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            starts = np.flatnonzero(first)
            wmin = np.minimum.reduceat(w, starts)
            lo, hi = lo[starts], hi[starts]
            n = self.num_vertices
            mat = sparse.coo_matrix((wmin, (lo, hi)), shape=(n, n))
            self._vertex_graph = (mat + mat.T).tocsr()
        return self._vertex_graph

    def face_adjacency(self, exclude_sides=()) -> sparse.csr_matrix:
        """Unweighted face adjacency; `exclude_sides` sides are not crossed."""
        # One entry per side: every side is glued, so each edge enters once
        # from each of its two sides and the matrix comes out symmetric.
        cross = np.ones((self.num_faces, 3), dtype=bool)
        excl = np.asarray(exclude_sides, dtype=np.int64).reshape(-1, 2)
        partner = self.glue[excl[:, 0], excl[:, 1]]
        cross[excl[:, 0], excl[:, 1]] = False
        cross[partner[:, 0], partner[:, 1]] = False
        f, s = np.nonzero(cross)
        g = self.glue[f, s, 0]
        ones = np.ones(len(f), dtype=np.int8)
        n = self.num_faces
        return sparse.coo_matrix((ones, (f, g)), shape=(n, n)).tocsr()


@dataclass(frozen=True)
class MeshCurve:
    """A closed simple cycle of mesh edges, stored as oriented (face, side) pairs."""

    vertices: tuple
    edges: tuple
    length: float
    separating: bool

    def __post_init__(self):
        if len(self.vertices) != len(self.edges):
            raise CurveError("a closed curve has as many vertices as edges")
        if len(set(self.vertices)) != len(self.vertices):
            raise CurveError("curve visits a vertex twice (not simple)")


def curve_from_vertex_cycle(surface: TriangulatedSurface, vertices) -> MeshCurve:
    """Resolve a cyclic vertex sequence into a MeshCurve on `surface`."""
    verts = [int(v) for v in vertices]
    if len(verts) < 2:
        raise CurveError("a closed curve needs at least two edges")
    dmap = surface.directed_edge_map()
    edges = []
    for j, w in enumerate(verts):
        w2 = verts[(j + 1) % len(verts)]
        try:
            edges.append(dmap[(w, w2)])
        except KeyError:
            raise CurveError(f"no mesh edge from vertex {w} to {w2}") from None
    length = float(sum(surface.lengths[f, s] for f, s in edges))
    adj = surface.face_adjacency(exclude_sides=edges)
    ncomp = csgraph.connected_components(adj, directed=False, return_labels=False)
    if ncomp > 2:
        raise CurveError("cutting the curve disconnects the surface into more than two parts")
    return MeshCurve(tuple(verts), tuple(edges), length, separating=bool(ncomp == 2))


# -- orientation ------------------------------------------------------------


def _orient(faces: np.ndarray, lengths: np.ndarray, glue_dict: dict, num_faces: int):
    """Flip faces to a coherent orientation; returns (faces, lengths, glue array).

    glue_dict maps (f, s) -> (f', s') both ways.  Raises MeshError if the
    complex is non-orientable or a side is unglued.
    """
    flip = np.zeros(num_faces, dtype=bool)
    seen = np.zeros(num_faces, dtype=bool)
    for start in range(num_faces):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            f = stack.pop()
            for s in range(3):
                if (f, s) not in glue_dict:
                    raise MeshError(f"side {s} of face {f} is unglued")
                g, r = glue_dict[(f, s)]
                mine = (faces[f, (s + 1) % 3], faces[f, (s + 2) % 3])
                theirs = (faces[g, (r + 1) % 3], faces[g, (r + 2) % 3])
                if mine == (theirs[1], theirs[0]):
                    same = True       # reversed directed edges: same flip state
                elif mine == theirs:
                    same = False      # identical directed edges: opposite flip state
                else:
                    raise MeshError(f"gluing of face {f} side {s} does not match vertex ids")
                want = flip[f] if same else not flip[f]
                if seen[g]:
                    if flip[g] != want:
                        raise MeshError("surface is non-orientable")
                else:
                    flip[g] = want
                    seen[g] = True
                    stack.append(g)
    perm = {0: 0, 1: 2, 2: 1}
    faces = faces.copy()
    lengths = lengths.copy()
    for f in np.flatnonzero(flip):
        faces[f] = faces[f][[0, 2, 1]]
        lengths[f] = lengths[f][[0, 2, 1]]
    glue = np.empty((num_faces, 3, 2), dtype=np.int64)
    for (f, s), (g, r) in glue_dict.items():
        ns = perm[s] if flip[f] else s
        nr = perm[r] if flip[g] else r
        glue[f, ns] = (g, nr)
    return faces, lengths, glue


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
    pants_graph: str = GENUS2_TWO_PANTS

    def __post_init__(self):
        if self.pants_graph != GENUS2_TWO_PANTS:
            raise MeshError(f"unsupported pants graph {self.pants_graph!r}")
        if len(self.cuff_lengths) != 3 or any(l <= 0 or not math.isfinite(l)
                                              for l in self.cuff_lengths):
            raise MeshError("need three positive finite cuff lengths")
        if len(self.twists) != 3 or any(t != int(t) for t in self.twists):
            raise MeshError("need three integer twists")
        if self.segments < 4 or self.segments % 2:
            raise MeshError("segments must be even and at least 4")


class _HexagonFan:
    """Geometry of one right-angled hexagon, triangulated by a centroid fan."""

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

        corners = hypgeom.right_angled_hexagon(self.side_lengths)
        centroid = hypgeom.normalize_point(corners.sum(axis=0))
        self.spacing = self.side_lengths / np.array(self.counts, dtype=float)
        corner_dist = hypgeom.hyp_distance(centroid, corners)
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
            u = hypgeom.coshm1(r - x) + math.sinh(r) * np.sinh(x) * versin
            o = int(self.offsets[q])
            self.spokes[o] = r
            self.spokes[o + 1:o + cnt] = hypgeom.acosh1p(u)
            u_far = hypgeom.coshm1(r - S[q]) + math.sinh(r) * math.sinh(S[q]) * versin
            r_far = float(hypgeom.acosh1p(u_far))
            if abs(r_far - corner_dist[(q + 1) % 6]) > 1e-9 * max(1.0, r_far):
                raise hypgeom.GeometryError(
                    "spoke propagation drifted away from hexagon corner positions")
            v_far = corner_versin(r_far, r, S[q])
            sin_far = math.sqrt(v_far * (2.0 - v_far))
            r, versin = r_far, (1.0 - v_far) ** 2 / (1.0 + sin_far)

    def boundary_side_of_edge(self, j: int) -> int:
        return int(np.searchsorted(self.offsets, j, side="right") - 1)


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

    nv_hex = B + 1          # boundary vertices + centroid
    nf_hex = B

    def bvid(t: int, j: int) -> int:
        return t * nv_hex + (j % B)

    def cvid(t: int) -> int:
        return t * nv_hex + B

    def svid(t: int, q: int, i: int) -> int:
        return bvid(t, int(hexfan.offsets[q]) + i)

    def fid(t: int, j: int) -> int:
        return t * nf_hex + (j % B)

    def side_face(t: int, q: int, i: int):
        return (fid(t, int(hexfan.offsets[q]) + i), 0)

    num_faces = 4 * nf_hex
    faces = np.empty((num_faces, 3), dtype=np.int64)
    lengths = np.empty((num_faces, 3), dtype=np.float64)
    glue_dict = {}

    def glue_pair(a, b):
        glue_dict[a] = b
        glue_dict[b] = a

    for t in range(4):
        for j in range(B):
            f = fid(t, j)
            faces[f] = (cvid(t), bvid(t, j), bvid(t, j + 1))
            q = hexfan.boundary_side_of_edge(j)
            lengths[f] = (hexfan.spacing[q], hexfan.spokes[(j + 1) % B], hexfan.spokes[j])
            glue_pair((f, 1), (fid(t, j + 1), 2))

    uf = _UnionFind(4 * nv_hex)

    # Seams: within each pants, hexagons 2p and 2p+1 join along sides 1, 3, 5,
    # matching subdivision points index-for-index from the shared corner.
    for p in range(2):
        a, b = 2 * p, 2 * p + 1
        for q in (1, 3, 5):
            cnt = hexfan.counts[q]
            for i in range(cnt + 1):
                uf.union(svid(a, q, i), svid(b, q, i))
            for i in range(cnt):
                glue_pair(side_face(a, q, i), side_face(b, q, i))

    def cuff_circle(p: int, q: int):
        a, b = 2 * p, 2 * p + 1
        verts = [svid(a, q, i) for i in range(m2)]
        verts.append(svid(a, q, m2))
        verts.extend(svid(b, q, i) for i in range(m2 - 1, 0, -1))
        edges = [side_face(a, q, i) for i in range(m2)]
        edges.extend(side_face(b, q, i) for i in range(m2 - 1, -1, -1))
        return verts, edges

    # Cuffs: pants 0 circle glued to the reversed pants 1 circle, shifted by
    # the integer twist.  Reversal keeps the closed surface orientable.
    gamma_cycle = None
    for ci, q in enumerate((0, 2, 4)):
        tw = int(spec.twists[ci])
        v0, e0 = cuff_circle(0, q)
        v1, e1 = cuff_circle(1, q)
        for j in range(m):
            uf.union(v0[j], v1[(tw - j) % m])
        for j in range(m):
            glue_pair(e0[j], e1[(tw - j - 1) % m])
        if ci == 0:
            gamma_cycle = v0

    labels = np.array([uf.find(v) for v in range(4 * nv_hex)])
    _, compact = np.unique(labels, return_inverse=True)
    faces = compact[faces]
    faces, lengths, glue = _orient(faces, lengths, glue_dict, num_faces)

    surface = TriangulatedSurface(faces, lengths, glue)
    gamma = curve_from_vertex_cycle(surface, [int(compact[uf.find(v)]) for v in gamma_cycle])
    if abs(gamma.length - l1) > CURVE_LENGTH_TOL:
        raise MeshError(f"cuff curve length {gamma.length!r} deviates from {l1!r}")
    return surface, gamma


def euler_characteristic(surface: TriangulatedSurface) -> int:
    return surface.euler_characteristic()


def total_area(surface: TriangulatedSurface) -> float:
    return surface.total_area()


# -- cutting ------------------------------------------------------------------


@dataclass
class CutSurface:
    """A surface cut open along a curve, with the two boundary circles tracked.

    Boundary sides have glue entry (-1, -1).  Edge i of both boundary
    lists is the copy of curve edge i; left keeps the original vertex
    ids, right uses fresh ids V+j for curve vertex j.  base_vertex maps
    every cut vertex id to the vertex of the uncut surface it came from.
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


def _star_sectors(surface: TriangulatedSurface, j: int, curve: MeshCurve):
    """Split the faces around curve vertex j into left/right sectors.

    Walks clockwise from the face left of the outgoing curve edge; the
    left sector is everything collected before the walk crosses the
    incoming curve edge.
    """
    faces, glue = surface.faces, surface.glue
    f_out, s_out = curve.edges[j]
    prev = curve.edges[(j - 1) % len(curve.edges)]
    prev_pair = {tuple(prev), tuple(int(x) for x in glue[prev[0], prev[1]])}
    f, c = f_out, (s_out + 1) % 3
    left, right = [], []
    bucket = left
    for _ in range(3 * surface.num_faces):
        bucket.append((f, c))
        crossed = (f, (c + 1) % 3)
        g, r = (int(x) for x in glue[crossed[0], crossed[1]])
        if tuple(crossed) in prev_pair or (g, r) in prev_pair:
            bucket = right
        f, c = g, (r + 1) % 3
        if (f, c) == (f_out, (s_out + 1) % 3):
            break
    else:
        raise MeshError("vertex star walk failed to close")
    return left, right


def cut_along(surface: TriangulatedSurface, curve: MeshCurve) -> CutSurface:
    """Cut a closed surface open along a non-separating simple curve."""
    if curve.separating:
        raise CurveError("curve is separating; cutting would disconnect the surface")
    faces = surface.faces.copy()
    glue = surface.glue.copy()
    V = surface.num_vertices
    c = len(curve.edges)
    right_edges = []
    for j, (f, s) in enumerate(curve.edges):
        g, r = (int(x) for x in glue[f, s])
        right_edges.append((g, r))
        glue[f, s] = (-1, -1)
        glue[g, r] = (-1, -1)
    for j, w in enumerate(curve.vertices):
        _, right = _star_sectors(surface, j, curve)
        for (f, cc) in right:
            if faces[f, cc] != w:
                raise MeshError("star walk visited a face not containing the vertex")
            faces[f, cc] = V + j
    cut = CutSurface(
        faces=faces,
        lengths=surface.lengths.copy(),
        glue=glue,
        num_vertices=V + c,
        left_edges=list(curve.edges),
        right_edges=right_edges,
        left_vertices=list(curve.vertices),
        right_vertices=[V + j for j in range(c)],
        base_vertex=np.concatenate([np.arange(V), np.array(curve.vertices, dtype=np.int64)]),
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


def surfaces_combinatorially_equal(s1: TriangulatedSurface, s2: TriangulatedSurface) -> bool:
    """Equality of faces/lengths/gluing up to a relabeling of vertex ids.

    Face order must agree; vertex ids are canonicalized by first
    appearance in face order.
    """
    if s1.num_faces != s2.num_faces:
        return False
    if not np.array_equal(s1.glue, s2.glue):
        return False
    if not np.allclose(s1.lengths, s2.lengths, rtol=0, atol=LENGTH_PAIR_TOL):
        return False

    def canon(faces):
        seen = {}
        out = np.empty_like(faces)
        flat = faces.ravel()
        res = out.ravel()
        for i, v in enumerate(flat):
            if v not in seen:
                seen[v] = len(seen)
            res[i] = seen[v]
        return out

    return np.array_equal(canon(s1.faces), canon(s2.faces))


# -- HYPMESH serialization -----------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_hypmesh(path, surface: TriangulatedSurface, curves=None, cover=None) -> None:
    """Write a surface (and optional curves / cover data) as a HYPMESH file.

    Layout: header `HYPMESH 1`, count line `F <faces> G <genus>`, one
    line per face `v0 v1 v2 len0 len1 len2`, one line per undirected
    edge `f1 side1 f2 side2`, then optional named `CURVE` blocks.  A
    cover adds `DECK <d>` (one face-permutation image per line),
    `PIECE <i> <count>` face lists and `LIFT <i> <count>` curve blocks.
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
    if cover is not None:
        lines.append(f"DECK {cover.degree}")
        lines.extend(str(int(x)) for x in cover.deck_face)
        for i in range(1, cover.n + 2):
            members = np.flatnonzero(cover.piece == i)
            lines.append(f"PIECE {i} {len(members)}")
            lines.extend(str(int(f)) for f in members)
        for i, lift in enumerate(cover.lifts, start=1):
            lines.append(f"LIFT {i} {len(lift.edges)}")
            lines.extend(f"{f} {s}" for f, s in lift.edges)
    data = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(data)


class _LineReader:
    def __init__(self, path):
        with open(path) as fh:
            raw = fh.read().splitlines()
        self.lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw)
                      if ln.strip() and not ln.lstrip().startswith("#")]
        self.pos = 0

    def next(self, what: str):
        if self.pos >= len(self.lines):
            raise MeshError(f"unexpected end of file while reading {what}")
        no, ln = self.lines[self.pos]
        self.pos += 1
        return no, ln

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else (None, None)

    @property
    def exhausted(self):
        return self.pos >= len(self.lines)


def read_hypmesh(path):
    """Parse a HYPMESH file.

    Returns (surface, curves, cover_info); cover_info is None for plain
    surfaces, else a dict with keys degree, deck_face, pieces, lifts
    (lift curve edge lists).  Malformed input raises MeshError with the
    offending line number.
    """
    rd = _LineReader(path)
    no, ln = rd.next("header")
    if ln != "HYPMESH 1":
        raise MeshError(f"line {no}: expected 'HYPMESH 1' header, got {ln!r}")
    no, ln = rd.next("count line")
    parts = ln.split()
    if len(parts) != 4 or parts[0] != "F" or parts[2] != "G":
        raise MeshError(f"line {no}: expected 'F <faces> G <genus>'")
    try:
        nf, genus = int(parts[1]), int(parts[3])
    except ValueError:
        raise MeshError(f"line {no}: face count and genus must be integers") from None
    faces = np.empty((nf, 3), dtype=np.int64)
    lengths = np.empty((nf, 3), dtype=np.float64)
    for f in range(nf):
        no, ln = rd.next(f"face {f}")
        parts = ln.split()
        if len(parts) != 6:
            raise MeshError(f"line {no}: face line needs 'v0 v1 v2 len0 len1 len2'")
        try:
            faces[f] = [int(p) for p in parts[:3]]
            lengths[f] = [float(p) for p in parts[3:]]
        except ValueError:
            raise MeshError(f"line {no}: malformed face line") from None
    glue = np.full((nf, 3, 2), -1, dtype=np.int64)
    for _ in range(3 * nf // 2):
        no, ln = rd.next("gluing line")
        parts = ln.split()
        if len(parts) != 4:
            raise MeshError(f"line {no}: gluing line needs 'f1 side1 f2 side2'")
        try:
            f1, s1, f2, s2 = (int(p) for p in parts)
        except ValueError:
            raise MeshError(f"line {no}: malformed gluing line") from None
        for (a, b) in ((f1, s1), (f2, s2)):
            if not (0 <= a < nf and 0 <= b < 3):
                raise MeshError(f"line {no}: gluing refers to missing side {a} {b}")
            if glue[a, b, 0] != -1:
                raise MeshError(f"line {no}: side {a} {b} glued twice")
        glue[f1, s1] = (f2, s2)
        glue[f2, s2] = (f1, s1)
    if np.any(glue < 0):
        raise MeshError("gluing lines do not cover every side")
    try:
        surface = TriangulatedSurface(faces, lengths, glue)
    except MeshError as e:
        raise MeshError(f"invalid mesh in {path}: {e}") from None
    if surface.genus != genus:
        raise MeshError(f"header genus {genus} but mesh has genus {surface.genus}")

    def read_side_list(count, what):
        out = []
        for _ in range(count):
            no, ln = rd.next(what)
            parts = ln.split()
            if len(parts) != 2:
                raise MeshError(f"line {no}: expected 'face side'")
            f, s = int(parts[0]), int(parts[1])
            if not (0 <= f < nf and 0 <= s < 3):
                raise MeshError(f"line {no}: side {f} {s} does not exist")
            out.append((f, s))
        return out

    def curve_from_sides(side_list, what):
        verts = [int(faces[f, (s + 1) % 3]) for f, s in side_list]
        for j, (f, s) in enumerate(side_list):
            nxt = verts[(j + 1) % len(side_list)]
            if int(faces[f, (s + 2) % 3]) != nxt:
                raise MeshError(f"{what}: edges do not chain into a closed cycle")
        return curve_from_vertex_cycle(surface, verts)

    curves = {}
    cover_info = None
    while not rd.exhausted:
        no, ln = rd.next("block")
        parts = ln.split()
        if parts[0] == "CURVE":
            if len(parts) != 3:
                raise MeshError(f"line {no}: expected 'CURVE <name> <edges>'")
            name, cnt = parts[1], int(parts[2])
            curves[name] = curve_from_sides(read_side_list(cnt, f"curve {name}"), f"CURVE {name}")
        elif parts[0] == "DECK":
            if len(parts) != 2:
                raise MeshError(f"line {no}: expected 'DECK <degree>'")
            degree = int(parts[1])
            deck = np.empty(nf, dtype=np.int64)
            for f in range(nf):
                no2, ln2 = rd.next("deck permutation")
                deck[f] = int(ln2)
            cover_info = {"degree": degree, "deck_face": deck, "pieces": {}, "lifts": []}
        elif parts[0] == "PIECE":
            if cover_info is None:
                raise MeshError(f"line {no}: PIECE block before DECK")
            idx, cnt = int(parts[1]), int(parts[2])
            members = []
            for _ in range(cnt):
                no2, ln2 = rd.next("piece member")
                members.append(int(ln2))
            cover_info["pieces"][idx] = np.array(members, dtype=np.int64)
        elif parts[0] == "LIFT":
            if cover_info is None:
                raise MeshError(f"line {no}: LIFT block before DECK")
            idx, cnt = int(parts[1]), int(parts[2])
            lift = curve_from_sides(read_side_list(cnt, f"lift {idx}"), f"LIFT {idx}")
            cover_info["lifts"].append(lift)
        else:
            raise MeshError(f"line {no}: unrecognized block {parts[0]!r}")
    return surface, curves, cover_info
