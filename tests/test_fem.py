import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from hypspectra.cover import cyclic_cover
from hypspectra.bound import rayleigh
from hypspectra.fem import (assemble, bisection_codes, dissection, prolongation, refine,
                            side_weights)
from hypspectra.hypgeom import GeometryError, triangle_areas
from hypspectra.surface import (CurveError, FenchelNielsenSpec, build_surface, curve_from_sides,
                                cut_along)
from oracles import (SWEEP_CUFFS, canonical_csr_lexsort, canonical_sum, element_mass,
                     element_stiffness, reference_pencil)

side = st.floats(min_value=0.3, max_value=3.0, allow_nan=False)


def valid_triangle(a, b, c):
    big = max(a, b, c)
    return min(b + c - a, c + a - b, a + b - c) > 1e-6 * big


# -- refinement ---------------------------------------------------------------

def test_refine_counts_and_invariants(base_r0):
    surface, gamma = base_r0
    refined, (rgamma,) = refine(surface, [gamma])
    assert refined.num_faces == 4 * surface.num_faces
    assert refined.euler_characteristic() == surface.euler_characteristic()
    assert refined.genus == surface.genus
    assert abs(refined.total_area() - surface.total_area()) <= 1e-10 * surface.num_faces
    assert np.abs(refined.cone_angles() - 2 * math.pi).max() <= 1e-9


def test_refine_carries_curve_exactly(base_r0):
    surface, gamma = base_r0
    refined, (rgamma,) = refine(surface, [gamma])
    assert len(rgamma.edges) == 2 * len(gamma.edges)
    assert rgamma.length == gamma.length       # halves sum back exactly
    # original curve vertices survive with the same ids
    assert set(gamma.vertices) <= set(rgamma.vertices)


def test_refine_keeps_curve_topology(base_r0):
    # gamma is non-separating; the boundary of face 0 separates
    surface, gamma = base_r0
    triangle = curve_from_sides(surface, [(0, 0), (0, 1), (0, 2)])
    refined, (rgamma, rtriangle) = refine(surface, [gamma, triangle])
    for curve, parts in ((rgamma, 1), (rtriangle, 2)):
        adj = refined.face_adjacency(exclude_sides=curve.edges)
        assert csgraph.connected_components(adj, directed=False)[0] == parts
    cut = cut_along(refined, rgamma)
    assert cut.num_vertices == refined.num_vertices + len(rgamma.edges)
    with pytest.raises(CurveError, match="curve is separating"):
        cut_along(refined, rtriangle)


def test_refine_twice_composes(base_levels):
    surface0, _ = base_levels[0]
    surface2, _ = base_levels[2]
    assert surface2.num_faces == 16 * surface0.num_faces
    assert abs(surface2.total_area() - surface0.total_area()) <= 1e-9


@pytest.mark.parametrize("level", [0, 1])
def test_prolongation_interpolates_onto_refine(base_levels, level):
    coarse, _ = base_levels[level]
    fine, _ = base_levels[level + 1]
    V = coarse.num_vertices
    P = prolongation(coarse)
    assert P.shape == (fine.num_vertices, V)
    assert np.array_equal(P @ np.ones(V), np.ones(fine.num_vertices))
    dense = P.toarray()
    assert np.array_equal(dense[:V], np.eye(V))
    # refine's central child 4f has the midpoint of parent side s as corner s,
    # and side s of the parent joins its corners s+1 and s+2.
    expect = np.zeros_like(dense[V:])
    for s in range(3):
        mids = fine.faces[0::4, s] - V
        ends = coarse.faces[:, (s + 1) % 3], coarse.faces[:, (s + 2) % 3]
        assert np.all(ends[0] != ends[1])
        expect[mids, ends[0]] = expect[mids, ends[1]] = 0.5
    assert np.array_equal(dense[V:], expect)


@pytest.mark.parametrize("level", [0, 1])
def test_refine_numbers_children_after_parent(base_levels, level):
    # The face-numbering contract `dissection` reads: the children of face
    # f are 4f..4f+3, 4f the central one, glued along its side k to child
    # 4f+1+k, which keeps parent corner k and two midpoints of the parent.
    coarse, _ = base_levels[level]
    fine, _ = base_levels[level + 1]
    F, V = coarse.num_faces, coarse.num_vertices
    assert fine.num_faces == 4 * F
    central = fine.faces[0::4]
    assert np.all(central >= V)
    for k in range(3):
        child = 4 * np.arange(F) + 1 + k
        assert np.array_equal(fine.faces[child, 0], coarse.faces[:, k])
        assert np.array_equal(fine.faces[child, 1], central[:, (k + 2) % 3])
        assert np.array_equal(fine.faces[child, 2], central[:, (k + 1) % 3])
        assert np.array_equal(fine.glue[child, 0, 0], 4 * np.arange(F))
        assert np.array_equal(fine.glue[child, 0, 1], np.full(F, k))


# -- nested dissection --------------------------------------------------------

def tree_nodes(surface, codes):
    """Each vertex's tree node as a bit string: the common prefix of its faces' codes.

    A face's code is spelled out from its base face's code and its
    quadtree path, one character per bit.
    """
    L = 0
    while len(codes) * 4**L < surface.num_faces:
        L += 1
    width = int(codes.max()).bit_length()
    spelled = [format(int(codes[f >> 2 * L]), f"0{width}b") +
               (format(f % 4**L, f"0{2 * L}b") if L else "")
               for f in range(surface.num_faces)]
    faces_of = [[] for _ in range(surface.num_vertices)]
    for f, corners in enumerate(surface.faces):
        for v in corners:
            faces_of[v].append(spelled[f])
    return [os.path.commonprefix(words) for words in faces_of]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_dissection_is_a_postorder_permutation(base_levels, level):
    surface, _ = base_levels[level]
    codes = bisection_codes(base_levels[0][0])
    assert len(np.unique(codes)) == len(codes)
    order = dissection(surface, codes)
    assert np.array_equal(np.sort(order), np.arange(surface.num_vertices))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    nodes = tree_nodes(surface, codes)
    # The first position among the vertices at each node.
    at_node = {}
    for v, node in enumerate(nodes):
        at_node[node] = min(at_node.get(node, len(order)), position[v])
    for v, node in enumerate(nodes):
        ancestors = [at_node[node[:k]] for k in range(len(node)) if node[:k] in at_node]
        assert all(position[v] < p for p in ancestors), f"vertex {v} after an ancestor"


def test_dissection_names_a_face_count_off_the_tree(base_levels):
    codes = bisection_codes(base_levels[0][0])
    surface, _ = base_levels[1]
    with pytest.raises(ValueError, match=f"{surface.num_faces} faces.*{len(codes) - 1} faces"):
        dissection(surface, codes[:-1])


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (0.5, 2.0, 2.0)])
def test_dissection_is_deterministic(cuffs):
    base, _ = build_surface(FenchelNielsenSpec(cuff_lengths=cuffs))
    codes = bisection_codes(base)
    assert np.array_equal(codes, bisection_codes(base))
    fine, _ = refine(base)
    assert np.array_equal(dissection(fine, codes), dissection(fine, bisection_codes(base)))


# -- element matrices ---------------------------------------------------------

def one_triangle(a, b, c):
    """A one-face "surface": `assemble` reads only faces, lengths and the vertex count."""
    return SimpleNamespace(faces=np.array([[0, 1, 2]]), lengths=np.array([[a, b, c]]),
                           num_vertices=3)


def test_element_stiffness_against_flat_coordinates():
    # independent route: embed the Euclidean comparison triangle, build
    # P1 gradients from coordinates, and integrate explicitly
    lengths = np.array([[1.1, 0.8, 0.9]])
    a, b, c = lengths[0]
    x2 = (b * b + c * c - a * a) / (2 * c)      # corner 2 coordinates
    y2 = math.sqrt(b * b - x2 * x2)
    pts = np.array([[0.0, 0.0], [c, 0.0], [x2, y2]])
    u, v = pts[1] - pts[0], pts[2] - pts[0]
    area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    grads = np.empty((3, 2))
    for k in range(3):
        p, q = pts[(k + 1) % 3], pts[(k + 2) % 3]
        edge = q - p
        normal = np.array([-edge[1], edge[0]])
        normal /= normal @ (pts[k] - p)
        grads[k] = normal
    direct = area * grads @ grads.T
    # side k joins corners k+1 and k+2 with weight -direct[k+1, k+2]
    w = side_weights(lengths)[0]
    assert np.abs(w + direct[[1, 2, 0], [2, 0, 1]]).max() <= 1e-12
    Ke = assemble(one_triangle(a, b, c)).stiffness.toarray()
    assert np.abs(Ke - direct).max() <= 1e-12
    assert np.array_equal(Ke, element_stiffness(lengths)[0])


@given(side, side, side)
@settings(max_examples=40)
def test_element_stiffness_properties(a, b, c):
    if not valid_triangle(a, b, c):
        return
    w = side_weights(np.array([[a, b, c]]))[0]
    # cot A cot B + cot B cot C + cot C cot A = 1, and one angle at most is obtuse
    products = w * w[[1, 2, 0]]
    assert abs(products.sum() - 0.25) <= 1e-10 * max(1.0, np.abs(products).sum())
    assert np.count_nonzero(w < 0) <= 1
    Ke = assemble(one_triangle(a, b, c)).stiffness.toarray()
    assert np.abs(Ke - Ke.T).max() == 0.0
    assert np.abs(Ke.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(Ke).max())
    assert np.linalg.eigvalsh(Ke).min() >= -1e-12
    assert np.array_equal(Ke, element_stiffness(np.array([[a, b, c]]))[0])


@given(side, side, side)
@settings(max_examples=40)
def test_element_mass_sums_to_hyperbolic_area(a, b, c):
    if not valid_triangle(a, b, c):
        return
    lengths = np.array([[a, b, c]])
    area = float(triangle_areas(lengths[0]))
    Me = assemble(one_triangle(a, b, c)).mass.toarray()
    assert abs(Me.sum() - area) <= 1e-13 * max(1.0, area)
    assert np.abs(Me - Me.T).max() == 0.0
    assert np.linalg.eigvalsh(Me).min() > 0
    assert np.array_equal(Me, element_mass(lengths)[0])


def test_element_mass_pattern():
    T = float(triangle_areas(np.array([1.0, 1.0, 1.0])))
    Me = assemble(one_triangle(1.0, 1.0, 1.0)).mass.toarray()
    assert np.allclose(np.diag(Me), T / 6, rtol=1e-15, atol=0)
    off = Me[~np.eye(3, dtype=bool)]
    assert np.allclose(off, T / 12, rtol=1e-15, atol=0)
    lumped = assemble(one_triangle(1.0, 1.0, 1.0), mass="lumped").mass.toarray()
    assert np.array_equal(lumped, np.diag(np.full(3, T / 3)))


def test_element_matrices_reject_degenerate():
    with pytest.raises(GeometryError):
        side_weights(np.array([[1.0, 1.0, 2.0]]))
    with pytest.raises(GeometryError):
        assemble(one_triangle(1.0, -1.0, 1.0))


# -- assembly -----------------------------------------------------------------

def test_assemble_global_invariants(base_r0):
    surface, _ = base_r0
    pencil = assemble(surface)
    K, B = pencil.stiffness, pencil.mass
    V = surface.num_vertices
    assert pencil.dof == V
    ones = np.ones(V)
    scale = np.abs(K.data).max()
    assert np.abs(K @ ones).max() <= 1e-12 * scale     # constants in the kernel
    assert abs(ones @ (B @ ones) - surface.total_area()) <= 1e-12 * surface.total_area()
    assert (K != K.T).nnz == 0
    assert (B != B.T).nnz == 0


def test_assemble_pattern_matches_vertex_graph(base_r0):
    surface, _ = base_r0
    pencil = assemble(surface)
    graph = surface.vertex_graph()
    assert pencil.stiffness.nnz == surface.num_vertices + graph.nnz
    assert pencil.mass.nnz == pencil.stiffness.nnz


def test_assemble_lumped_is_diagonal(base_r0):
    surface, _ = base_r0
    lumped = assemble(surface, mass="lumped").mass
    consistent = assemble(surface).mass
    assert lumped.nnz == surface.num_vertices
    assert lumped.diagonal().min() > 0
    assert abs(lumped.sum() - consistent.sum()) <= 1e-12 * consistent.sum()


def test_assemble_rejects_unknown_mass(base_r0):
    surface, _ = base_r0
    with pytest.raises(ValueError):
        assemble(surface, mass="diagonalish")


def test_assemble_deterministic_bits(base_r0):
    surface, _ = base_r0
    p1 = assemble(surface)
    p2 = assemble(surface)
    assert p1.stiffness.data.tobytes() == p2.stiffness.data.tobytes()
    assert p1.mass.data.tobytes() == p2.mass.data.tobytes()


def random_triples(rng, n, groups):
    """COO triples on `groups` distinct (row, col) keys with 1..8 terms each.

    Values mix magnitudes (so the sum depends on the order of addition),
    repeat within a group, and include +0.0 and -0.0.
    """
    keys = rng.choice(n * n, size=groups, replace=False)
    sizes = rng.integers(1, 9, size=groups)
    rows, cols = np.repeat(keys // n, sizes), np.repeat(keys % n, sizes)
    vals = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-8, 9, size=len(rows))
    pick = rng.random(len(rows))
    vals[pick < 0.3] = rng.choice([0.0, -0.0, 1.5, -1.5, 1e16, -1e16],
                                  size=int(np.count_nonzero(pick < 0.3)))
    return rows, cols, vals


def assert_same_csr_bits(mine, ref):
    assert mine.indptr.dtype == ref.indptr.dtype
    assert mine.indices.dtype == ref.indices.dtype
    assert np.array_equal(mine.indptr, ref.indptr)
    assert np.array_equal(mine.indices, ref.indices)
    assert np.array_equal(mine.data.view(np.int64), ref.data.view(np.int64))


@pytest.mark.parametrize("seed", range(6))
def test_canonical_sum_matches_full_sort_bitwise(seed):
    rng = np.random.default_rng(seed)
    n = 12
    rows, cols, vals = random_triples(rng, n, groups=60)
    ref = canonical_csr_lexsort(rows, cols, vals, n)
    emissions = [np.arange(len(rows)), np.arange(len(rows))[::-1]]
    emissions += [rng.permutation(len(rows)) for _ in range(4)]
    for order in emissions:
        assert_same_csr_bits(canonical_sum(rows[order], cols[order], n)(vals[order]), ref)


def test_canonical_sum_reuses_its_order(base_r0):
    surface, _ = base_r0
    n = surface.num_vertices
    rows, cols = np.repeat(surface.faces, 3, axis=1), np.tile(surface.faces, 3)
    rows, cols = rows.reshape(-1), cols.reshape(-1)
    pattern = canonical_sum(rows, cols, n)
    rng = np.random.default_rng(5)
    for _ in range(3):
        vals = rng.standard_normal(len(rows))
        assert_same_csr_bits(pattern(vals), canonical_csr_lexsort(rows, cols, vals, n))
    pencil = assemble(surface)
    for mat, elem in ((pencil.stiffness, element_stiffness(surface.lengths)),
                      (pencil.mass, element_mass(surface.lengths))):
        assert_same_csr_bits(mat, canonical_csr_lexsort(rows, cols, elem.reshape(-1), n))


def most_sides_on_a_pair(mesh) -> int:
    """The largest number of face sides that join one pair of vertices."""
    a, b = mesh.faces[:, [1, 2, 0]], mesh.faces[:, [2, 0, 1]]
    keys = np.minimum(a, b) * mesh.num_vertices + np.maximum(a, b)
    return int(np.unique(keys, return_counts=True)[1].max())


@pytest.mark.parametrize("cuffs", SWEEP_CUFFS)
def test_assemble_matches_reference_pencil_bits(cuffs):
    # The per-side sums give the bits of the 9-entry element assembly, on
    # the base and the cut surface at refine 0-2, with either mass.
    surface, gamma = build_surface(FenchelNielsenSpec(cuff_lengths=cuffs))
    for level in range(3):
        if level:
            surface, (gamma,) = refine(surface, [gamma])
        for mesh in (surface, cut_along(surface, gamma)):
            if cuffs == (6.0, 6.0, 6.0) and level == 0:
                # two mesh edges join one vertex pair: groups of four sides
                assert most_sides_on_a_pair(mesh) == 4
            for mass in ("consistent", "lumped"):
                mine, ref = assemble(mesh, mass=mass), reference_pencil(mesh, mass=mass)
                assert_same_csr_bits(mine.stiffness, ref.stiffness)
                assert_same_csr_bits(mine.mass, ref.mass)


def test_assemble_working_memory(base_levels):
    # Sides and corners, not 9 entries per face: the element-matrix
    # assembly peaked at 6.4 times the pencil it returned.
    surface, _ = base_levels[3]
    tracemalloc.start()
    try:
        pencil = assemble(surface)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
               for m in (pencil.stiffness, pencil.mass))
    assert peak <= 4 * size


def assert_deck_equivariant_bits(mat, deck_vertex):
    inv = np.empty_like(deck_vertex)
    inv[deck_vertex] = np.arange(len(deck_vertex))
    moved = mat[inv][:, inv].tocsr()
    moved.sort_indices()
    ref = mat.copy()
    ref.sort_indices()
    assert np.array_equal(moved.indptr, ref.indptr)
    assert np.array_equal(moved.indices, ref.indices)
    assert moved.data.tobytes() == ref.data.tobytes()


def test_assemble_deck_equivariant_bits(small_cover):
    pencil = assemble(small_cover.surface)
    for mat in (pencil.stiffness, pencil.mass):
        assert_deck_equivariant_bits(mat, small_cover.deck_vertex)


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
@pytest.mark.parametrize("n, N", [(0, 1), (1, 1), (2, 1), (2, 4)])
def test_copy_quotients_match_cover_assembly(base_r0, n, N, mass):
    # (0, 1) is the degree-1 cover: its one copy meets itself on the seam.
    surface, gamma = base_r0
    cover = cyclic_cover(surface, gamma, n=n, N=N)
    cut = assemble(cover.cut, mass=mass)
    full = assemble(cover.surface, mass=mass)
    rng = np.random.default_rng(n * 10 + N)
    for _ in range(5):
        f = rng.standard_normal(full.dof)
        mine, ref = rayleigh(cut, f[cover.copy_vertex]), rayleigh(full, f)
        assert abs(mine - ref) <= 1e-13 * abs(ref)
    # trace(K)/dof of the cover: every cut vertex lands on one cover vertex.
    mine = cut.stiffness.diagonal().sum() / surface.num_vertices
    ref = full.stiffness.diagonal().sum() / full.dof
    assert abs(mine - ref) <= 1e-14 * ref
