import json
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import hypspectra.bound as bound_module
from hypspectra.bound import (RAMP_CAP, BoundError, bound_report, boundary_distances,
                              collar_width, distance_to_curves, minimax_certificate,
                              piece_ramps, ramp_quotient, ramp_width, rayleigh)
from hypspectra.cli import _cover_ramps, _lift_distances
from hypspectra.cover import cyclic_cover
from hypspectra.eigen import solve_smallest
from hypspectra.fem import SparsePencil, assemble
from hypspectra.surface import FenchelNielsenSpec, build_surface, cut_along
from oracles import FROZEN, H_BOUND, SWEEP_CUFFS, close


def all_pairs_distances(surface):
    """Dense shortest edge paths, recomputed without the graph library."""
    n = surface.num_vertices
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    graph = surface.vertex_graph().tocoo()
    for i, j, w in zip(graph.row, graph.col, graph.data):
        D[i, j] = min(D[i, j], w)
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return D


# -- collar width ---------------------------------------------------------------

def test_collar_width_frozen_values():
    assert close(collar_width(2.0), FROZEN["collar_2"])
    # the length whose collar half-width equals half the length itself
    fixed = FROZEN["collar_fixed_point"]
    assert close(collar_width(fixed), FROZEN["arcsinh_1"])
    assert close(collar_width(fixed), fixed / 2.0)


def test_collar_width_shrinks_with_length():
    widths = [collar_width(l) for l in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(widths, widths[1:]))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_collar_width_rejects_bad_lengths(bad):
    with pytest.raises(BoundError):
        collar_width(bad)


# -- vertex distances -------------------------------------------------------------

def test_distance_matches_dense_recomputation(base_r0):
    surface, gamma = base_r0
    D = all_pairs_distances(surface)
    expect = D[sorted(gamma.vertices)].min(axis=0)
    got = distance_to_curves(surface, [gamma])
    assert np.abs(got - expect).max() <= 1e-12


def test_distance_rejects_no_sources(base_r0):
    surface, _ = base_r0
    with pytest.raises(BoundError):
        distance_to_curves(surface, [])


def test_vertex_pieces_partition(small_cover):
    # The cover-level reference ramps: two-sided ramps are positive off
    # the lifts, so their supports partition the vertices off the lifts.
    fs = _cover_ramps(small_cover, _lift_distances(small_cover), "two-sided")
    lift_verts = sorted({v for c in small_cover.lifts for v in c.vertices})
    assert (fs[:, lift_verts] == 0).all()
    interior = np.setdiff1d(np.arange(small_cover.surface.num_vertices), lift_verts)
    owners = fs[:, interior] > 0
    assert (owners.sum(axis=0) == 1).all()
    assert owners.any(axis=1).all()


# -- collar and ramp widths --------------------------------------------------------

def test_lifts_clear_twice_the_collar_width():
    # The collar theorem makes the lifts at least 2 * eta apart, which the
    # edge-path clearance must confirm.
    for cuffs in [(2.0, 2.0, 2.0), (0.5, 2.0, 2.0), (4.0, 1.0, 1.0)]:
        surface, gamma = build_surface(FenchelNielsenSpec(cuff_lengths=cuffs))
        eta = collar_width(gamma.length)
        for N in (1, 2):
            cover = cyclic_cover(surface, gamma, n=2, N=N)
            D = all_pairs_distances(cover.surface)
            verts = [sorted(c.vertices) for c in cover.lifts]
            for i in range(len(verts)):
                for j in range(i):
                    assert D[np.ix_(verts[i], verts[j])].min() >= 2.0 * eta


@pytest.mark.parametrize("cuffs", SWEEP_CUFFS)
def test_ramps_at_the_lemma_width_reach_one(cuffs):
    # The width comes from the collar lemma alone, with no per-row depth:
    # the collar theorem leaves every piece deep enough for the ramp to
    # reach 1, on every copy that rises or falls, and the ramp passes
    # the support check.
    surface, gamma = build_surface(FenchelNielsenSpec(cuff_lengths=cuffs))
    cut = cut_along(surface, gamma)
    left, right = dist = boundary_distances(cut)
    pencil = assemble(cut)
    eta, t = collar_width(cut.curve_length), ramp_width(cut.curve_length)
    assert 0.0 < t == min(eta / 2.0, RAMP_CAP)
    assert np.minimum(left, right).max() >= eta >= 2.0 * t
    for N in (1, 2, 3):
        for variant in ("two-sided", "one-sided"):
            vectors, copies = piece_ramps(cut, dist, N, variant)
            ends = [np.minimum(left, right)] if N == 1 else [left, right]
            if variant == "one-sided":
                ends[0] = (right if N == 1 else np.full_like(right, np.inf)).copy()
                ends[0][cut.left_vertices] = 0.0
            assert np.array_equal(vectors[0], np.clip(ends[0] / t, 0.0, 1.0))
            assert np.array_equal(vectors[-1], np.clip(ends[-1] / t, 0.0, 1.0))
            assert (vectors.max(axis=1) == 1.0).all()
            assert ramp_quotient(cut, pencil, dist, N, variant) > 0.0


# -- test functions ----------------------------------------------------------------

@pytest.mark.parametrize("variant", ["two-sided", "one-sided"])
def test_ramp_functions_properties(small_cover, variant):
    cut = small_cover.cut
    dist = boundary_distances(cut)
    for N in (1, 2, 3, 1024):
        vectors, copies = piece_ramps(cut, dist, N, variant=variant)
        assert vectors.shape == (len(copies), cut.num_vertices)
        assert copies.sum() == N and (copies > 0).all()
        assert len(copies) == min(N, 3)
        assert vectors.min() >= 0.0 and vectors.max() <= 1.0
        # 0 on the lifts bounding the piece, and the plateau is reached
        assert (vectors[0][cut.left_vertices] == 0.0).all()
        assert (vectors[-1][cut.right_vertices] == 0.0).all()
        assert (vectors.max(axis=1) == 1.0).all()


def test_ramp_variant_rejected(small_cover):
    cut = small_cover.cut
    dist = boundary_distances(cut)
    with pytest.raises(BoundError):
        piece_ramps(cut, dist, 1, variant="sideways")


@pytest.mark.parametrize("variant", ["two-sided", "one-sided"])
def test_cross_terms_vanish_exactly(base_r0, small_cover, on_cover, variant):
    surface, gamma = base_r0
    for cover in (small_cover, cyclic_cover(surface, gamma, n=2, N=3)):
        cut = cover.cut
        dist = boundary_distances(cut)
        fs = on_cover(cover, *piece_ramps(cut, dist, cover.N, variant=variant))
        pencil = assemble(cover.surface)
        GK, GB = fs @ (pencil.stiffness @ fs.T), fs @ (pencil.mass @ fs.T)
        off = ~np.eye(3, dtype=bool)
        assert (GK[off] == 0.0).all()
        assert (GB[off] == 0.0).all()
        assert (np.diag(GB) > 0).all()


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("level", [0, 1])
def test_base_level_ramps_match_the_cover(base_levels, level, N):
    surface, gamma = base_levels[level]
    cover = cyclic_cover(surface, gamma, n=2, N=N)
    cut, d = cover.cut, cover.degree
    dist = boundary_distances(cut)
    lift_dist = _lift_distances(cover)
    cut_pencil, full = assemble(cut), assemble(cover.surface)
    for variant in ("two-sided", "one-sided"):
        fs = _cover_ramps(cover, lift_dist, variant)
        quotient = ramp_quotient(cut, cut_pencil, dist, N, variant)
        for f in fs:
            reference = rayleigh(full, f)
            assert abs(quotient - reference) <= 1e-12 * reference
    # Lift i is the right circle of copy iN-1 and the left circle of copy
    # iN: within t of it the cut distances are the cover's, bitwise, and
    # every other copy lies farther than t from it.
    t = ramp_width(gamma.length)
    for i, row in enumerate(lift_dist, start=1):
        after, before = (i * N) % d, i * N - 1
        for k, mine in ((after, dist[0]), (before, dist[1])):
            theirs = row[cover.copy_vertex[k]]
            near = theirs < t
            assert near.any()
            assert np.array_equal(mine[near], theirs[near])
            assert (mine[~near] >= t).all()
        others = np.delete(cover.copy_vertex, [after, before], axis=0)
        assert (row[others] >= t).all()


def test_rayleigh_weights_copies(small_cover):
    cut = small_cover.cut
    dist = boundary_distances(cut)
    vectors, copies = piece_ramps(cut, dist, 7)
    pencil = assemble(cut)
    mine = rayleigh(pencil, vectors, copies)
    stacked = rayleigh(pencil, np.repeat(vectors, copies, axis=0))
    assert abs(mine - stacked) <= 1e-14 * stacked


@pytest.mark.parametrize("N, copy, circle, message", [
    (1, 0, "left_vertices", "nonzero on its piece's first copy's left circle"),
    (2, -1, "right_vertices", "nonzero on its piece's last copy's right circle"),
    (2, 0, "right_vertices", "copies 0 and 1 of a piece differ"),
    (5, 1, "left_vertices", "copies 0 and 1 of a piece differ"),
    (5, 1, "right_vertices", "copies 1 and 1 of a piece differ"),
])
def test_support_check_names_the_failure(small_cover, monkeypatch, N, copy, circle, message):
    real = bound_module.piece_ramps

    def nudged(cut, *args, **kwargs):
        vectors, copies = real(cut, *args, **kwargs)
        vectors[copy, getattr(cut, circle)[3]] = 0.5
        return vectors, copies

    monkeypatch.setattr(bound_module, "piece_ramps", nudged)
    cut = small_cover.cut
    with pytest.raises(BoundError, match=message):
        ramp_quotient(cut, assemble(cut), boundary_distances(cut), N)


# -- quotients and the certificate ---------------------------------------------

def test_certificate_is_max_quotient(small_cover):
    fs = _cover_ramps(small_cover, _lift_distances(small_cover), "two-sided")
    pencil = assemble(small_cover.surface)
    cert, quotients = minimax_certificate(pencil, fs, small_cover.surface.faces)
    assert quotients == [rayleigh(pencil, f) for f in fs]
    assert cert == max(quotients)


def test_certificate_rejects_overlapping_supports(small_cover):
    pencil = assemble(small_cover.surface)
    fs = np.ones((2, small_cover.surface.num_vertices))
    with pytest.raises(BoundError, match=r"triangle \d+"):
        minimax_certificate(pencil, fs, small_cover.surface.faces)


def test_copy_support_check_names_the_cover_triangle(small_cover):
    # Both functions are 1 around one vertex of copy 2; stacked by copy,
    # the triangles are counted copy-major, as the cover lays them out.
    cover = small_cover
    fs = np.zeros((2, cover.surface.num_vertices))
    fs[:, cover.surface.faces[2 * len(cover.cut.faces) + 5, 0]] = 1.0
    messages = []
    for pencil, stacked, faces in ((assemble(cover.surface), fs, cover.surface.faces),
                                   (assemble(cover.cut), fs[:, cover.copy_vertex],
                                    cover.cut.faces)):
        with pytest.raises(BoundError, match=r"triangle \d+") as err:
            minimax_certificate(pencil, stacked, faces)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_rayleigh_rejects_zero_function(small_cover):
    pencil = assemble(small_cover.surface)
    with pytest.raises(BoundError):
        rayleigh(pencil, np.zeros(pencil.dof))


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=20.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rayleigh_scales_inversely_with_mass(c, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((8, 8))
    K = csr_matrix(G.T @ G)
    B0 = rng.standard_normal((8, 8)) / 4.0
    B = csr_matrix(np.eye(8) + B0.T @ B0)
    f = rng.standard_normal(8)
    q1 = rayleigh(SparsePencil(stiffness=K, mass=B), f)
    q2 = rayleigh(SparsePencil(stiffness=K, mass=csr_matrix(c * B.toarray())), f)
    assert abs(q2 - q1 / c) <= 1e-12 * max(1.0, abs(q1 / c))


# -- the full report -----------------------------------------------------------------

def test_report_internal_identities(sweep_rows):
    row = sweep_rows[2]
    report = row["report"]
    assert report.n == 2 and report.N == 2 and report.degree == 6
    assert report.curve_length == 2.0
    assert abs(report.base_area - FROZEN["area_genus2"]) <= 1e-8
    assert report.bound == 2.0 / report.eta * (report.h + report.h * report.h)
    assert report.lambda_n == float(row["spectrum"].values[2])
    assert report.testfn_variant == "two-sided"
    assert close(report.h, H_BOUND[2][0], rel=1e-10)
    assert close(report.bound, H_BOUND[2][1], rel=1e-8)


def test_report_certifies_small_cover_both_variants(base_r0, small_cover):
    spectrum = solve_smallest(assemble(small_cover.surface), count=4, tol=1e-9, seed=0)
    cut = small_cover.cut
    for variant in ("two-sided", "one-sided"):
        report = bound_report(cut, assemble(cut), spectrum, n=2, N=1, variant=variant,
                              dist=boundary_distances(cut),
                              base_area=base_r0[0].total_area())
        assert report.testfn_variant == variant
        assert report.certificate_holds
        assert report.lambda_n <= report.certificate + 1e-7 * report.scale


def test_report_needs_enough_eigenvalues(base_r0, small_cover):
    spectrum = solve_smallest(assemble(small_cover.surface), count=2, tol=1e-9, seed=0)
    cut = small_cover.cut
    with pytest.raises(BoundError):
        bound_report(cut, assemble(cut), spectrum, n=2, N=1, dist=boundary_distances(cut),
                     base_area=base_r0[0].total_area())


def test_report_round_trips_through_json(sweep_rows):
    report = sweep_rows[4]["report"]
    restored = json.loads(json.dumps(asdict(report), sort_keys=True))
    assert restored == asdict(report)
    assert restored["N"] == 4
    assert restored["bound_holds"] is True
    assert restored["certificate_holds"] is True
    assert restored["eta"] == collar_width(report.curve_length)
    assert restored["t"] == ramp_width(report.curve_length)
    assert not {"collar", "bound_conservative", "bound_holds_conservative", "chain_checks",
                "chain_assumptions_hold", "half_collar"} & set(restored)


# -- distance fields ----------------------------------------------------------------

def test_lift_distances_union_is_bitwise_min(small_cover, cover_r3):
    for cover in (small_cover, cover_r3):
        dist = _lift_distances(cover)
        assert dist.shape == (cover.n + 1, cover.surface.num_vertices)
        union = distance_to_curves(cover.surface, cover.lifts)
        assert np.array_equal(dist.min(axis=0), union)


@pytest.mark.parametrize("variant", ["two-sided", "one-sided"])
def test_report_runs_at_most_two_dijkstra_on_the_cut(base_r0, monkeypatch, variant):
    surface, gamma = base_r0
    cut = cut_along(surface, gamma)
    pencil = assemble(cut)
    spectrum = SimpleNamespace(values=np.zeros(9))
    real = bound_module.csgraph
    calls = []

    class CountingCsgraph:
        def __getattr__(self, name):
            return getattr(real, name)

        def dijkstra(self, graph, *args, **kwargs):
            calls.append(graph.shape)
            return real.dijkstra(graph, *args, **kwargs)

    monkeypatch.setattr(bound_module, "csgraph", CountingCsgraph())
    dist = boundary_distances(cut)
    for n, N in [(1, 1), (2, 3), (7, 64), (2, 1024)]:
        bound_report(cut, pencil, spectrum, n, N, variant=variant, dist=dist,
                     base_area=surface.total_area())
    # both searches belong to boundary_distances, which serves every N
    assert calls == [(cut.num_vertices, cut.num_vertices)] * 2
