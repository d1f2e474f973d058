import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypspectra.surface import (CurveError, FenchelNielsenSpec, MeshError,
                                TriangulatedSurface, build_surface,
                                curve_from_vertex_cycle, cut_along, read_hypmesh,
                                surfaces_combinatorially_equal, write_hypmesh)
from oracles import FROZEN, close

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
    assert not gamma.separating
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
    assert not gamma.separating
    assert abs(surface.total_area() - 4 * math.pi) <= 1e-8


def test_twist_wraps_modulo_m(base_r0):
    surface, _ = base_r0
    m = 8
    a, _ = build_surface(FenchelNielsenSpec(cuff_lengths=(2.0, 2.0, 2.0),
                                            twists=(3, 0, 0), segments=m))
    b, _ = build_surface(FenchelNielsenSpec(cuff_lengths=(2.0, 2.0, 2.0),
                                            twists=(3 + m, -m, 2 * m), segments=m))
    assert surfaces_combinatorially_equal(a, b)


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


def test_validate_rejects_self_gluing(base_r0):
    surface, _ = base_r0
    glue = surface.glue.copy()
    glue[0, 0] = (0, 0)
    with pytest.raises(MeshError):
        rebuild(surface, glue=glue)


# -- curves -------------------------------------------------------------------

def test_curve_from_vertex_cycle_roundtrip(base_r0):
    surface, gamma = base_r0
    again = curve_from_vertex_cycle(surface, gamma.vertices)
    assert again.vertices == gamma.vertices
    assert again.edges == gamma.edges
    assert again.length == gamma.length
    assert again.separating == gamma.separating


def test_curve_rejects_non_adjacent_vertices(base_r0):
    surface, gamma = base_r0
    verts = list(gamma.vertices)
    far = next(v for v in range(surface.num_vertices) if v not in verts)
    with pytest.raises(CurveError):
        curve_from_vertex_cycle(surface, [verts[0], far, verts[1]])


def test_curve_rejects_repeated_vertex(base_r0):
    surface, gamma = base_r0
    verts = list(gamma.vertices)
    with pytest.raises(CurveError):
        curve_from_vertex_cycle(surface, verts + [verts[0]])


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


# -- HYPMESH ------------------------------------------------------------------

def test_hypmesh_roundtrip(tmp_path, base_r0):
    surface, gamma = base_r0
    path = tmp_path / "base.hypmesh"
    write_hypmesh(path, surface, curves={"gamma": gamma})
    first = path.read_bytes()
    write_hypmesh(path, surface, curves={"gamma": gamma})
    assert path.read_bytes() == first       # deterministic bytes
    back, curves, cover_info = read_hypmesh(path)
    assert cover_info is None
    assert surfaces_combinatorially_equal(surface, back)
    assert np.allclose(back.lengths, surface.lengths, rtol=0, atol=0)
    assert curves["gamma"].edges == gamma.edges
    assert curves["gamma"].length == gamma.length


def test_hypmesh_header_comment_records_area(tmp_path, base_r0):
    surface, _ = base_r0
    path = tmp_path / "s.hypmesh"
    write_hypmesh(path, surface)
    header = path.read_text().splitlines()[:3]
    area_line = next(line for line in header if line.startswith("# area="))
    assert close(float(area_line.split("=")[1]), 4 * math.pi, rel=1e-12)


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_hypmesh_parse_errors(tmp_path, base_r0):
    surface, _ = base_r0
    good = tmp_path / "good.hypmesh"
    write_hypmesh(good, surface)
    lines = good.read_text().splitlines()

    bad = tmp_path / "bad.hypmesh"

    _write_lines(bad, ["HYPMESH 2"] + lines[1:])
    with pytest.raises(MeshError, match="1"):
        read_hypmesh(bad)

    _write_lines(bad, lines[:10])                     # truncated
    with pytest.raises(MeshError):
        read_hypmesh(bad)

    wrong_genus = list(lines)
    wrong_genus[1] = "F 132 G 3"
    _write_lines(bad, wrong_genus)
    with pytest.raises(MeshError, match="genus"):
        read_hypmesh(bad)

    mangled = list(lines)
    mangled[3] = "not numbers at all"
    _write_lines(bad, mangled)
    with pytest.raises(MeshError, match="4"):
        read_hypmesh(bad)


def test_hypmesh_rejects_bad_glue_target(tmp_path, base_r0):
    surface, _ = base_r0
    good = tmp_path / "good.hypmesh"
    write_hypmesh(good, surface)
    lines = good.read_text().splitlines()
    # first gluing line sits right after the face block
    first_glue = 3 + surface.num_faces
    parts = lines[first_glue].split()
    parts[2] = str(surface.num_faces + 5)
    lines[first_glue] = " ".join(parts)
    bad = tmp_path / "bad.hypmesh"
    _write_lines(bad, lines)
    with pytest.raises(MeshError):
        read_hypmesh(bad)


# -- graph helpers --------------------------------------------------------------

def test_vertex_graph_is_symmetric_positive(base_r0):
    surface, _ = base_r0
    g = surface.vertex_graph()
    assert (g != g.T).nnz == 0
    assert g.data.min() > 0


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
