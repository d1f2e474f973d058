import math

import numpy as np
import pytest
from scipy.sparse import csgraph

from hypspectra.cover import CoverError, cyclic_cover, verify_deck_symmetry
from hypspectra.surface import curve_from_vertex_cycle, surfaces_combinatorially_equal


def test_identity_cover_reglues_to_base(base_r0):
    surface, gamma = base_r0
    cover = cyclic_cover(surface, gamma, n=0, N=1)
    assert cover.degree == 1
    assert surfaces_combinatorially_equal(cover.surface, surface)


def test_cover_counts_and_genus(base_r0):
    surface, gamma = base_r0
    for n, N in [(0, 2), (1, 1), (2, 1), (2, 2), (1, 3)]:
        cover = cyclic_cover(surface, gamma, n=n, N=N)
        d = (n + 1) * N
        assert cover.degree == d
        assert cover.surface.num_faces == d * surface.num_faces
        chi = cover.surface.euler_characteristic()
        assert chi == d * surface.euler_characteristic()   # exact
        assert cover.surface.genus == d + 1                # genus-2 base
        assert abs(cover.surface.total_area() - d * surface.total_area()) <= 1e-8 * d


def test_deck_symmetry(small_cover):
    verify_deck_symmetry(small_cover)   # raises on any violation


def test_deck_permutation_has_order_d(small_cover):
    d = small_cover.degree
    perm = small_cover.deck_face
    cur = perm.copy()
    for _ in range(d - 1):
        assert np.any(cur != np.arange(len(perm)))
        cur = perm[cur]
    assert np.array_equal(cur, np.arange(len(perm)))


def test_lift_lengths_bitwise_equal(base_r0, small_cover):
    _, gamma = base_r0
    assert len(small_cover.lifts) == small_cover.n + 1
    for lift in small_cover.lifts:
        assert lift.length == gamma.length          # identical float sums
        assert len(lift.edges) == len(gamma.edges)


@pytest.mark.parametrize("n, N", [(1, 1), (2, 1), (2, 3), (7, 2)])
def test_no_lift_separates_the_cover(base_r0, n, N):
    surface, gamma = base_r0
    cover = cyclic_cover(surface, gamma, n=n, N=N)
    for lift in cover.lifts:
        adj = cover.surface.face_adjacency(exclude_sides=lift.edges)
        assert csgraph.connected_components(adj, directed=False)[0] == 1
        assert not lift.separating


def test_lifts_are_pairwise_disjoint(small_cover):
    seen = set()
    for lift in small_cover.lifts:
        verts = set(lift.vertices)
        assert not (verts & seen)
        seen |= verts


def test_piece_areas_are_uniform(base_r0):
    surface, gamma = base_r0
    for n, N in [(2, 1), (2, 2), (1, 3)]:
        cover = cyclic_cover(surface, gamma, n=n, N=N)
        areas = cover.surface.triangle_areas()
        for i in range(1, n + 2):
            piece_area = float(areas[cover.piece == i].sum())
            assert abs(piece_area - N * surface.total_area()) <= 1e-8


def test_pieces_partition_faces(small_cover):
    piece = small_cover.piece
    assert piece.min() == 1
    assert piece.max() == small_cover.n + 1
    counts = np.bincount(piece)[1:]
    assert len(set(counts.tolist())) == 1       # equal face counts per piece


def test_deck_shifts_pieces_cyclically(small_cover):
    # deck^N maps piece i onto piece i+1 (cyclically); N=1 here
    moved = small_cover.piece[small_cover.deck_face]
    expect = small_cover.piece % (small_cover.n + 1) + 1
    assert np.array_equal(moved, expect)


def test_cover_rejects_bad_arguments(base_r0):
    surface, gamma = base_r0
    with pytest.raises(CoverError):
        cyclic_cover(surface, gamma, n=-1, N=1)
    with pytest.raises(CoverError):
        cyclic_cover(surface, gamma, n=2, N=0)


def test_cover_rejects_separating_curve(base_r0):
    surface, _ = base_r0
    triangle = curve_from_vertex_cycle(surface, surface.faces[0].tolist())
    assert triangle.separating
    with pytest.raises((CoverError, ValueError)):
        cyclic_cover(surface, triangle, n=1, N=1)


def test_cover_of_refined_base(base_levels):
    surface, gamma = base_levels[1]
    cover = cyclic_cover(surface, gamma, n=2, N=2)
    verify_deck_symmetry(cover)
    assert cover.surface.genus == 7
    assert abs(cover.surface.total_area() - 6 * 4 * math.pi) <= 1e-7


def test_copy_vertex_map_tiles_the_cut(base_r0):
    surface, gamma = base_r0
    cover = cyclic_cover(surface, gamma, n=1, N=2)
    cut = cover.cut
    assert cover.copy_vertex.shape == (cover.degree, cut.num_vertices)
    # every cover vertex comes from some copy, and no copy uses one twice
    assert np.array_equal(np.unique(cover.copy_vertex),
                          np.arange(cover.surface.num_vertices))
    for row in cover.copy_vertex:
        assert len(np.unique(row)) == cut.num_vertices
    # copy k's faces are the cut faces relabeled through copy_vertex[k]
    faces = cover.surface.faces.reshape(cover.degree, surface.num_faces, 3)
    for k in range(cover.degree):
        assert np.array_equal(faces[k], cover.copy_vertex[k][cut.faces])
    # the seam: copy k's right circle is copy k+1's left circle
    right = cover.copy_vertex[:, cut.right_vertices]
    left = cover.copy_vertex[:, cut.left_vertices]
    assert np.array_equal(right, np.roll(left, -1, axis=0))
