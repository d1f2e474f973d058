import hashlib
import math

import numpy as np
import pytest
from scipy.sparse import csgraph

from hypspectra.cover import CoverError, cyclic_cover
from hypspectra.surface import CurveError, curve_from_sides

# SHA-256 prefixes of every integer array a cover carries, recorded from
# a construction whose covers all passed an explicit check of the deck
# symmetry (order d, bitwise lengths, gluing, pieces and lifts).  Any
# change to the face layout, the vertex numbering, the deck map, the
# pieces or the lifts shows here.  The lengths are not hashed: they are
# the cut's, copy by copy (test_cover_lengths_tile_the_cut), and move
# with the base mesh at roundoff.
COVER_DIGESTS = [
    (0, 0, 1, "354b09f547e00397"),
    (0, 2, 1, "919f5eb57a81d0b9"),
    (0, 1, 3, "a0f73c2efc8b7664"),
    (0, 7, 2, "d98034475d6d514d"),
    (1, 2, 2, "27455c91e98693ce"),
]
COVER_IDS = [f"{level}-{n}-{N}" for level, n, N, _ in COVER_DIGESTS]


def cover_digest(cover) -> str:
    h = hashlib.sha256()
    s = cover.surface
    for a in (s.faces, s.glue, cover.copy_vertex, cover.deck_vertex, cover.piece):
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    for lift in cover.lifts:
        h.update(np.asarray(lift.vertices, dtype="<i8").tobytes())
        h.update(np.asarray(lift.edges, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("level, n, N, digest", COVER_DIGESTS, ids=COVER_IDS)
def test_cover_output_is_frozen(base_levels, level, n, N, digest):
    surface, gamma = base_levels[level]
    assert cover_digest(cyclic_cover(surface, gamma, n=n, N=N)) == digest


@pytest.mark.parametrize("level, n, N", [c[:3] for c in COVER_DIGESTS], ids=COVER_IDS)
def test_cover_lengths_tile_the_cut(base_levels, level, n, N):
    surface, gamma = base_levels[level]
    cover = cyclic_cover(surface, gamma, n=n, N=N)
    assert cover.surface.lengths.tobytes() == np.tile(cover.cut.lengths,
                                                      (cover.degree, 1)).tobytes()


def test_identity_cover_reglues_to_base(base_r0):
    surface, gamma = base_r0
    cover = cyclic_cover(surface, gamma, n=0, N=1)
    assert cover.degree == 1
    relabel = np.full(cover.surface.num_vertices, -1)
    relabel[cover.copy_vertex[0]] = cover.cut.base_vertex
    assert np.array_equal(np.sort(relabel), np.arange(surface.num_vertices))
    assert np.array_equal(relabel[cover.surface.faces], surface.faces)
    assert np.array_equal(cover.surface.lengths, surface.lengths)
    assert np.array_equal(cover.surface.glue, surface.glue)


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


def shifted(cover, per_face):
    """per_face moved one copy back: entry f is the entry of f + F/d, the deck image of f."""
    return np.roll(per_face, -cover.surface.num_faces // cover.degree, axis=0)


def test_deck_symmetry(small_cover):
    # the shift by one copy preserves lengths bitwise, commutes with the
    # gluing, and carries each face's vertices along deck_vertex
    surf = small_cover.surface
    F, step = surf.num_faces, surf.num_faces // small_cover.degree
    assert np.array_equal(shifted(small_cover, surf.lengths), surf.lengths)
    assert np.array_equal(shifted(small_cover, surf.glue[..., 0]), (surf.glue[..., 0] + step) % F)
    assert np.array_equal(shifted(small_cover, surf.glue[..., 1]), surf.glue[..., 1])
    assert np.array_equal(small_cover.deck_vertex[surf.faces], shifted(small_cover, surf.faces))


def test_deck_permutation_has_order_d(small_cover):
    d = small_cover.degree
    perm = small_cover.deck_vertex
    identity = np.arange(len(perm))
    assert np.array_equal(np.sort(perm), identity)
    cur = perm.copy()
    for _ in range(d - 1):
        assert np.all(cur != identity)          # every orbit has d vertices
        cur = perm[cur]
    assert np.array_equal(cur, identity)


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
    # deck^N maps piece i onto piece i+1 and lift i onto lift i+1
    # (cyclically); N=1 here
    nn = small_cover.n + 1
    expect = small_cover.piece % nn + 1
    assert np.array_equal(shifted(small_cover, small_cover.piece), expect)
    deck = small_cover.deck_vertex
    for i, lift in enumerate(small_cover.lifts):
        nxt = small_cover.lifts[(i + 1) % nn]
        assert tuple(deck[list(lift.vertices)].tolist()) == nxt.vertices


def test_cover_rejects_bad_arguments(base_r0):
    surface, gamma = base_r0
    with pytest.raises(CoverError):
        cyclic_cover(surface, gamma, n=-1, N=1)
    with pytest.raises(CoverError):
        cyclic_cover(surface, gamma, n=2, N=0)


def test_cover_rejects_separating_curve(base_r0):
    surface, _ = base_r0
    triangle = curve_from_sides(surface, [(0, 0), (0, 1), (0, 2)])
    with pytest.raises(CurveError, match="curve is separating"):
        cyclic_cover(surface, triangle, n=1, N=1)


def test_cover_of_refined_base(base_levels):
    surface, gamma = base_levels[1]
    cover = cyclic_cover(surface, gamma, n=2, N=2)
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
