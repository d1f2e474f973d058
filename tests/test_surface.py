import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypspectra.fem import refine
from hypspectra.hypgeom import GeometryError
from hypspectra.surface import (CurveError, FenchelNielsenSpec, MeshError,
                                TriangulatedSurface, build_surface, curve_from_sides,
                                cut_along, write_hypmesh)
from oracles import FAR_CUFFS, FROZEN, close, read_hypmesh

cuff = st.floats(min_value=0.8, max_value=3.5, allow_nan=False)
twist = st.integers(min_value=-4, max_value=4)
segments = st.sampled_from([4, 6, 8, 10])


def rebuild(surface, **tweaks):
    parts = {"faces": surface.faces.copy(), "lengths": surface.lengths.copy(),
             "glue": surface.glue.copy()}
    parts.update(tweaks)
    return TriangulatedSurface(parts["faces"], parts["lengths"], parts["glue"])


# -- builder ------------------------------------------------------------------

def test_default_build_counts(base_r0):
    surface, gamma = base_r0
    assert surface.num_faces == 132
    assert surface.num_vertices == 64
    assert surface.num_edges == 198
    assert surface.euler_characteristic() == -2
    assert surface.genus == 2
    assert gamma.length == 2.0          # eight arcs of exactly 1/4
    assert close(surface.total_area(), FROZEN["area_genus2"], rel=1e-12)


def test_default_build_flatness(base_r0):
    surface, _ = base_r0
    assert np.abs(surface.cone_angles() - 2 * math.pi).max() <= 1e-10
    chi = surface.euler_characteristic()
    assert abs(surface.total_area() + 2 * math.pi * chi) <= 1e-10


@given(cuff, cuff, cuff, twist, twist, twist, segments)
@settings(max_examples=15, deadline=None)
def test_builder_invariants(l1, l2, l3, t1, t2, t3, m):
    spec = FenchelNielsenSpec(cuff_lengths=(l1, l2, l3), twists=(t1, t2, t3),
                              segments=m)
    surface, gamma = build_surface(spec)   # validates internally
    assert surface.genus == 2
    assert abs(gamma.length - l1) <= 1e-9 * max(1.0, l1)
    cut_along(surface, gamma)              # raises if gamma separates
    assert abs(surface.total_area() - 4 * math.pi) <= 1e-8


@pytest.mark.parametrize("cuffs", FAR_CUFFS)
def test_builder_far_from_default_cuffs(cuffs):
    surface, gamma = build_surface(FenchelNielsenSpec(cuff_lengths=cuffs))
    surface.validate()
    assert surface.genus == 2
    assert abs(gamma.length - cuffs[0]) <= 1e-9 * max(1.0, cuffs[0])


log_cuff = st.floats(min_value=math.log(1e-3), max_value=math.log(2000.0)).map(math.exp)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(log_cuff, log_cuff, log_cuff)
@settings(max_examples=40, deadline=None)
def test_builder_builds_or_names_the_failure(l1, l2, l3):
    try:
        surface, _ = build_surface(FenchelNielsenSpec(cuff_lengths=(l1, l2, l3)))
    except (MeshError, GeometryError):
        return
    assert np.all(np.isfinite(surface.corner_angles()))


# Frozen digests of the builder's combinatorics: faces, glue, and gamma's
# vertices and edges.  Only integers are hashed, so the digests do not
# depend on the platform's libm.
BUILDER_DIGESTS = [
    ((2.0, 2.0, 2.0), (0, 0, 0), 8,
     "6917f588cc1f8477", "014eb9b34fa79088", "7e2a77b5fa049f5b"),
    ((1.0, 3.0, 5.0), (1, 2, 3), 12,
     "47466c43a995ec3d", "1022535bcb9cd077", "f736e77def807ee9"),
    ((0.05, 2.0, 2.0), (-3, 5, 0), 4,
     "89ef3f23bb4625db", "521585c56a6979ed", "74ce53f12c428739"),
    ((6.0, 6.0, 6.0), (7, -1, 2), 16,
     "2afa3f45e0841249", "e29e608d89338726", "e9250ad894605603"),
    ((0.3, 1.0, 4.0), (0, 0, 0), 32,
     "5948c09a1e4c9278", "c17a3891c452e1d1", "920cb217957a34c3"),
    ((2.0, 2.0, 2.0), (3, 0, 0), 6,
     "4f1b84853052c5bb", "d89ad7af794a46a4", "ad80434db0bb13e5"),
]


def int_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("cuffs, twists, m, faces, glue, gamma", BUILDER_DIGESTS)
def test_builder_output_is_frozen(cuffs, twists, m, faces, glue, gamma):
    surface, curve = build_surface(FenchelNielsenSpec(cuffs, twists, m))
    assert int_digest(surface.faces) == faces
    assert int_digest(surface.glue) == glue
    assert int_digest(curve.vertices, curve.edges) == gamma

def test_twist_wraps_modulo_m(base_r0):
    surface, _ = base_r0
    m = 8
    a, _ = build_surface(FenchelNielsenSpec(cuff_lengths=(2.0, 2.0, 2.0),
                                            twists=(3, 0, 0), segments=m))
    b, _ = build_surface(FenchelNielsenSpec(cuff_lengths=(2.0, 2.0, 2.0),
                                            twists=(3 + m, -m, 2 * m), segments=m))
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.glue, b.glue)


def test_fenchel_nielsen_spec_validation():
    with pytest.raises(Exception):
        FenchelNielsenSpec(cuff_lengths=(0.0, 1.0, 1.0))
    with pytest.raises(Exception):
        FenchelNielsenSpec(cuff_lengths=(1.0, 1.0, 1.0), segments=5)
    with pytest.raises(Exception):
        FenchelNielsenSpec(cuff_lengths=(1.0, 1.0, 1.0), segments=2)
    with pytest.raises(Exception):
        FenchelNielsenSpec(cuff_lengths=(1.0, 1.0, 1.0), twists=(0.5, 0, 0))


# -- validation rejects tampering ---------------------------------------------

def test_validate_rejects_unpaired_lengths(base_r0):
    surface, _ = base_r0
    lengths = surface.lengths.copy()
    f, s = 0, 0
    g, r = surface.glue[f, s]
    lengths[f, s] += 1e-6
    with pytest.raises(MeshError):
        rebuild(surface, lengths=lengths)


def test_validate_rejects_cone_defect(base_r0):
    surface, _ = base_r0
    lengths = surface.lengths.copy()
    f, s = 0, 0
    g, r = surface.glue[f, s]
    lengths[f, s] += 1e-4
    lengths[g, r] += 1e-4   # keep the pair consistent so the cone check trips
    with pytest.raises(MeshError):
        rebuild(surface, lengths=lengths)


def test_validate_rejects_broken_involution(base_r0):
    surface, _ = base_r0
    glue = surface.glue.copy()
    glue[0, 0] = glue[1, 0]
    with pytest.raises(MeshError):
        rebuild(surface, glue=glue)


def test_validate_rejects_orientation_flip(base_r0):
    surface, _ = base_r0
    faces = surface.faces.copy()
    lengths = surface.lengths.copy()
    faces[0] = faces[0][[0, 2, 1]]
    lengths[0] = lengths[0][[0, 2, 1]]
    with pytest.raises(MeshError):
        rebuild(surface, faces=faces, lengths=lengths)



def test_validate_names_an_unglued_side(base_r0):
    surface, _ = base_r0
    glue = surface.glue.copy()
    g, r = glue[5, 1]
    glue[5, 1] = glue[g, r] = -1
    with pytest.raises(MeshError, match="side 1 of face 5 is not glued"):
        rebuild(surface, glue=glue)

def test_validate_rejects_a_gap_in_the_vertex_ids(base_r0):
    surface, _ = base_r0
    for faces in (surface.faces + (surface.faces >= 5),              # id 5 unused
                  np.where(surface.faces == 0, -1, surface.faces)):  # id 0 is -1
        with pytest.raises(MeshError, match="vertex ids must be contiguous"):
            rebuild(surface, faces=faces)


def test_validate_names_a_face_with_a_repeated_vertex(base_r0):
    # Assembly keys a side by its two ends, so they must differ.
    surface, _ = base_r0
    faces = surface.faces.copy()
    faces[5, 1] = faces[5, 0]
    with pytest.raises(MeshError, match=f"face 5 has vertex {faces[5, 0]} at two corners"):
        rebuild(surface, faces=faces)


def test_validate_rejects_self_gluing(base_r0):
    surface, _ = base_r0
    glue = surface.glue.copy()
    glue[0, 0] = (0, 0)
    with pytest.raises(MeshError):
        rebuild(surface, glue=glue)


# -- curves -------------------------------------------------------------------

def test_curve_from_sides_roundtrip(base_r0):
    surface, gamma = base_r0
    again = curve_from_sides(surface, gamma.edges)
    assert again == gamma
    assert again.vertices == tuple(int(surface.faces[f, (s + 1) % 3]) for f, s in gamma.edges)


def test_curve_rejects_sides_that_do_not_chain(base_r0):
    surface, gamma = base_r0
    sides = list(gamma.edges)
    for broken in (sides[:-1], sides[1:2] + sides[0:1] + sides[2:]):
        with pytest.raises(CurveError, match="do not chain"):
            curve_from_sides(surface, broken)


def test_curve_rejects_repeated_vertex(base_r0):
    surface, gamma = base_r0
    with pytest.raises(CurveError, match="vertex twice"):
        curve_from_sides(surface, 2 * list(gamma.edges))


def test_curve_rejects_one_edge_there_and_back(base_r0):
    # A side and its glued partner chain into a closed cycle through two
    # distinct vertices, but walk one edge twice; cut_along used to fail
    # on it with a MeshError about the left boundary.
    surface, gamma = base_r0
    side = gamma.edges[0]
    partner = tuple(int(x) for x in surface.glue[side])
    with pytest.raises(CurveError, match="one edge there and back"):
        curve_from_sides(surface, [side, partner])
    surface, _ = build_surface(FenchelNielsenSpec((6.0, 6.0, 6.0), (0, 0, 0), 4))
    with pytest.raises(CurveError, match="one edge there and back"):
        curve_from_sides(surface, [(2, 0), (11, 0)])
    assert curve_from_sides(surface, [(2, 0), (29, 0)]).vertices == (2, 3)


# -- cutting ------------------------------------------------------------------

def test_cut_along_doubles_curve_vertices(base_r0):
    surface, gamma = base_r0
    cut = cut_along(surface, gamma)
    k = len(gamma.vertices)
    assert cut.num_vertices == surface.num_vertices + k
    assert len(cut.left_edges) == len(gamma.edges)
    assert len(cut.right_edges) == len(gamma.edges)
    assert cut.faces.shape == surface.faces.shape
    # severed sides point nowhere
    for f, s in list(map(tuple, cut.left_edges)) + list(map(tuple, cut.right_edges)):
        assert tuple(cut.glue[f, s]) == (-1, -1)
    # left boundary keeps the original ids, right gets fresh ones
    assert set(cut.left_vertices) == set(gamma.vertices)
    assert min(cut.right_vertices) >= surface.num_vertices


# Frozen digests of cut_along's output (faces, glue, right_edges and
# base_vertex) along gamma on the builder's specs, at refinement 0, 1, 2.
CUT_DIGESTS = [
    ((2.0, 2.0, 2.0), (0, 0, 0), 8,
     ("5231c787ba4c6d4a", "5ed7ebad5585bf6a", "89f300d6cc9c1d85")),
    ((1.0, 3.0, 5.0), (1, 2, 3), 12,
     ("dd67573cb51ce2a6", "b44795045d8715b0", "4c3374f6bdf40691")),
    ((0.05, 2.0, 2.0), (-3, 5, 0), 4,
     ("4575925f8d0fd9be", "3df552e52e1e3153", "15df6b224b1bce43")),
    ((6.0, 6.0, 6.0), (7, -1, 2), 16,
     ("0a939fc60b840048", "69e1d7fb251c4de0", "208ca1c62cfefc36")),
    ((0.3, 1.0, 4.0), (0, 0, 0), 32,
     ("7827d1db50298989", "5a2964eb2a332e3d", "0655c804693a2eed")),
    ((2.0, 2.0, 2.0), (3, 0, 0), 6,
     ("943fc98bce55454c", "566aa83161e9e9ca", "aacceaefeff35c8a")),
]


@pytest.mark.parametrize("cuffs, twists, m, digests", CUT_DIGESTS)
def test_cut_output_is_frozen(cuffs, twists, m, digests):
    surface, gamma = build_surface(FenchelNielsenSpec(cuffs, twists, m))
    for level, digest in enumerate(digests):
        if level:
            surface, (gamma,) = refine(surface, [gamma])
        cut = cut_along(surface, gamma)
        assert int_digest(cut.faces, cut.glue, cut.right_edges, cut.base_vertex) == digest


# -- HYPMESH ------------------------------------------------------------------

def test_hypmesh_roundtrip(tmp_path, base_r0):
    surface, gamma = base_r0
    path = tmp_path / "base.hypmesh"
    write_hypmesh(path, surface, curves={"gamma": gamma})
    first = path.read_bytes()
    write_hypmesh(path, surface, curves={"gamma": gamma})
    assert path.read_bytes() == first       # deterministic bytes
    back, curves = read_hypmesh(path)
    assert np.array_equal(back.faces, surface.faces)
    assert np.array_equal(back.lengths, surface.lengths)
    assert np.array_equal(back.glue, surface.glue)
    assert curves["gamma"].edges == gamma.edges
    assert curves["gamma"].length == gamma.length


def test_hypmesh_keeps_curve_sides_on_parallel_edges(tmp_path):
    # With m = 4 the cuffs carry parallel edges: sides (20, 0) and (29, 0)
    # run between the same vertices as (2, 0) and (11, 0), so (2, 0) and
    # (29, 0) close a curve of two edges.
    surface, _ = build_surface(FenchelNielsenSpec((6.0, 6.0, 6.0), (0, 0, 0), 4))
    path = tmp_path / "parallel.hypmesh"
    write_hypmesh(path, surface)
    with open(path, "a") as fh:
        fh.write("CURVE c 2\n2 0\n29 0\n")
    written = path.read_bytes()
    back, curves = read_hypmesh(path)
    assert curves["c"].edges == ((2, 0), (29, 0))
    write_hypmesh(path, back, curves=curves)
    assert path.read_bytes() == written


def test_hypmesh_header_comment_records_area(tmp_path, base_r0):
    surface, _ = base_r0
    path = tmp_path / "s.hypmesh"
    write_hypmesh(path, surface)
    header = path.read_text().splitlines()[:3]
    area_line = next(line for line in header if line.startswith("# area="))
    assert close(float(area_line.split("=")[1]), 4 * math.pi, rel=1e-12)


# -- graph helpers --------------------------------------------------------------

def test_vertex_graph_is_symmetric_positive(base_r0):
    surface, _ = base_r0
    g = surface.vertex_graph()
    assert (g != g.T).nnz == 0
    assert g.data.min() > 0


def test_vertex_graph_from_every_side_matches_one_side_per_edge(base_r0, small_cover):
    # The builder gives both sides of an edge the same length bits, so
    # reading every side changes no entry of the graph.
    twisted, _ = refine(build_surface(FenchelNielsenSpec((0.5, 2.0, 3.0), (1, 3, 5), 8))[0])
    for surface in (base_r0[0], small_cover.surface, twisted):
        best = {}
        for f, s in surface.canonical_sides():
            ends = sorted(int(surface.faces[f, (s + k) % 3]) for k in (1, 2))
            best[tuple(ends)] = min(best.get(tuple(ends), math.inf), surface.lengths[f, s])
        g = surface.vertex_graph()
        assert g.nnz == 2 * len(best)
        for (u, v), w in best.items():
            assert g[u, v] == w and g[v, u] == w


def test_face_adjacency_is_connected(base_r0):
    from scipy.sparse import csgraph
    surface, _ = base_r0
    n, _ = csgraph.connected_components(surface.face_adjacency(), directed=False)
    assert n == 1


def _face_adjacency_by_set(surface, exclude_sides):
    """Set-membership reference for face_adjacency(exclude_sides=...)."""
    excl = {(int(f), int(s)) for f, s in exclude_sides}
    excl |= {tuple(int(x) for x in surface.glue[f, s]) for f, s in exclude_sides}
    sides = [(int(f), int(s)) for f, s in surface.canonical_sides()
             if (int(f), int(s)) not in excl]
    adj = np.zeros((surface.num_faces, surface.num_faces), dtype=np.int64)
    for f, s in sides:
        g = int(surface.glue[f, s, 0])
        adj[f, g] += 1
        adj[g, f] += 1
    return adj


def test_face_adjacency_excludes_sides_like_set_reference(small_cover):
    surface = small_cover.surface
    lift = small_cover.lifts[1]
    partners = [tuple(int(x) for x in surface.glue[f, s]) for f, s in lift.edges]
    for exclude in (lift.edges, partners, np.array(lift.edges, dtype=np.int64), ()):
        got = surface.face_adjacency(exclude_sides=exclude).toarray()
        assert np.array_equal(got, _face_adjacency_by_set(surface, exclude))
    removed = surface.face_adjacency().sum() - surface.face_adjacency(exclude_sides=partners).sum()
    assert removed == 2 * len(lift.edges)
