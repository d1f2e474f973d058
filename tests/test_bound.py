import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import hypspectra.bound as bound_module
from hypspectra.bound import (RAMP_CAP, BoundError, CollarData,
                              bound_report, build_test_functions, collar_data,
                              collar_width, cross_gram,
                              distance_to_curves, lift_distances,
                              minimax_certificate, rayleigh,
                              vertex_pieces)
from hypspectra.cover import cyclic_cover
from hypspectra.eigen import solve_smallest
from hypspectra.fem import SparsePencil, assemble
from hypspectra.surface import FenchelNielsenSpec, build_surface
from oracles import FROZEN, H_BOUND, close


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
    vp = vertex_pieces(small_cover)
    lift_verts = sorted({v for c in small_cover.lifts for v in c.vertices})
    assert (vp[lift_verts] == 0).all()
    interior = np.setdiff1d(np.arange(small_cover.surface.num_vertices), lift_verts)
    assert set(np.unique(vp[interior])) == {1, 2, 3}


# -- collar data -----------------------------------------------------------------

def test_collar_data_measures_clearances(small_cover):
    # eta is the collar-lemma width; the collar theorem makes the lifts at
    # least 2 * eta apart, which the edge-path clearance must confirm.
    for cuffs in [(2.0, 2.0, 2.0), (0.5, 2.0, 2.0), (4.0, 1.0, 1.0)]:
        surface, gamma = build_surface(FenchelNielsenSpec(cuff_lengths=cuffs))
        for N in (1, 2):
            cover = cyclic_cover(surface, gamma, n=2, N=N)
            collar = collar_data(cover, lift_distances(cover))
            assert collar.eta == collar_width(gamma.length)
            assert collar.t_requested == min(collar.eta / 2.0, RAMP_CAP)
            D = all_pairs_distances(cover.surface)
            verts = [sorted(c.vertices) for c in cover.lifts]
            for i in range(len(verts)):
                for j in range(i):
                    assert D[np.ix_(verts[i], verts[j])].min() >= 2.0 * collar.eta

    collar = collar_data(small_cover, lift_distances(small_cover))
    assert collar.t == collar.t_requested
    assert not collar.t_shrunk


def test_collar_data_rejects_inconsistent_width():
    with pytest.raises(BoundError):
        CollarData(eta=0.3, t=0.35, t_requested=0.35, t_shrunk=False)
    with pytest.raises(BoundError):
        CollarData(eta=0.3, t=0.0, t_requested=0.15, t_shrunk=True)


# -- test functions ----------------------------------------------------------------

@pytest.mark.parametrize("variant", ["two-sided", "one-sided"])
def test_ramp_functions_properties(small_cover, variant):
    dist = lift_distances(small_cover)
    collar = collar_data(small_cover, dist)
    fs = build_test_functions(small_cover, collar, dist, variant=variant)
    vp = vertex_pieces(small_cover)
    assert fs.shape == (3, small_cover.surface.num_vertices)
    assert fs.min() >= 0.0 and fs.max() <= 1.0
    lift_verts = sorted({v for c in small_cover.lifts for v in c.vertices})
    for i, f in enumerate(fs, start=1):
        assert (f[lift_verts] == 0.0).all()
        assert (f[vp != i] == 0.0).all()          # supported on its own piece
        assert f.max() == 1.0                      # plateau is reached


def test_ramp_variant_rejected(small_cover):
    dist = lift_distances(small_cover)
    collar = collar_data(small_cover, dist)
    with pytest.raises(BoundError):
        build_test_functions(small_cover, collar, dist, variant="sideways")


@pytest.mark.parametrize("variant", ["two-sided", "one-sided"])
def test_cross_terms_vanish_exactly(small_cover, variant):
    dist = lift_distances(small_cover)
    collar = collar_data(small_cover, dist)
    fs = build_test_functions(small_cover, collar, dist, variant=variant)
    pencil = assemble(small_cover.surface)
    GK, GB = cross_gram(pencil, fs)
    off = ~np.eye(3, dtype=bool)
    assert (GK[off] == 0.0).all()
    assert (GB[off] == 0.0).all()
    assert (np.diag(GB) > 0).all()


# -- quotients and the certificate ---------------------------------------------

def test_certificate_is_max_quotient(small_cover):
    dist = lift_distances(small_cover)
    collar = collar_data(small_cover, dist)
    fs = build_test_functions(small_cover, collar, dist)
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
    assert report.c_eta == 2.0 / report.eta
    assert report.bound == report.c_eta * (report.h + report.h * report.h)
    assert report.certificate == max(report.rayleigh_quotients)
    assert report.lambda_n == float(row["spectrum"].values[2])
    assert report.testfn_variant == "two-sided"
    assert close(report.h, H_BOUND[2][0], rel=1e-10)
    assert close(report.bound, H_BOUND[2][1], rel=1e-8)


def test_report_certifies_small_cover_both_variants(small_cover):
    spectrum = solve_smallest(assemble(small_cover.surface), count=4, tol=1e-9, seed=0)
    for variant in ("two-sided", "one-sided"):
        report = bound_report(small_cover, assemble(small_cover.cut), spectrum,
                              variant=variant)
        assert report.testfn_variant == variant
        assert report.certificate_holds
        assert report.lambda_n <= report.certificate + 1e-7 * report.scale
        assert len(report.rayleigh_quotients) == 3


def test_report_needs_enough_eigenvalues(small_cover):
    spectrum = solve_smallest(assemble(small_cover.surface), count=2, tol=1e-9, seed=0)
    with pytest.raises(BoundError):
        bound_report(small_cover, assemble(small_cover.cut), spectrum)


def test_report_round_trips_through_json(sweep_rows):
    report = sweep_rows[4]["report"]
    d = report.as_dict()
    restored = json.loads(json.dumps(d, sort_keys=True))
    assert restored["N"] == 4
    assert restored["bound_holds"] is True
    assert restored["certificate_holds"] is True
    assert restored["collar"]["t_shrunk"] is False
    assert not {"bound_conservative", "bound_holds_conservative", "chain_checks",
                "chain_assumptions_hold", "half_collar"} & set(restored)
    assert set(restored["collar"]) == {"eta", "t", "t_requested", "t_shrunk"}
    assert "lemma_width" not in restored["collar"]
    assert "lift_clearances" not in restored["collar"]


# -- per-lift distance fields ------------------------------------------------------

def test_lift_distances_union_is_bitwise_min(small_cover, cover_r3):
    for cover in (small_cover, cover_r3):
        dist = lift_distances(cover)
        assert dist.shape == (cover.n + 1, cover.surface.num_vertices)
        union = distance_to_curves(cover.surface, cover.lifts)
        assert np.array_equal(dist.min(axis=0), union)


@pytest.mark.parametrize("variant", ["two-sided", "one-sided"])
def test_report_runs_one_dijkstra_per_lift(small_cover, monkeypatch, variant):
    spectrum = solve_smallest(assemble(small_cover.surface), count=4, tol=1e-9, seed=0)
    pencil = assemble(small_cover.cut)
    real = bound_module.csgraph
    calls = []

    class CountingCsgraph:
        def __getattr__(self, name):
            return getattr(real, name)

        def dijkstra(self, *args, **kwargs):
            calls.append(list(kwargs["indices"]))
            return real.dijkstra(*args, **kwargs)

    monkeypatch.setattr(bound_module, "csgraph", CountingCsgraph())
    bound_report(small_cover, pencil, spectrum, variant=variant)
    assert calls == [sorted(lift.vertices) for lift in small_cover.lifts]
