"""Acceptance suite: one test per certified claim, run on the default family.

Base surface: cuff lengths (2, 2, 2), zero twists, m = 8, refinement 2.
Cover family: n = 2 (three designated lifts), N in {1, 2, 4, 8, 16}.
Each test prints a one-line summary of the measured quantities it checked.
"""

import math

import numpy as np

from hypspectra.bound import (build_test_functions, collar_data, cross_gram,
                              half_collar_areas, lift_distances)
from hypspectra.cli import _random_pencil
from hypspectra.eigen import dense_oracle, solve_smallest
from hypspectra.fem import assemble

BASE_AREA = 4.0 * math.pi
CRITERION_N = (1, 2, 4, 8)


def _permuted_bits_equal(mat, perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    moved = mat.tocsr()[inv][:, inv].tocsr()
    moved.sort_indices()
    ref = mat.tocsr().copy()
    ref.sort_indices()
    return (np.array_equal(moved.indptr, ref.indptr)
            and np.array_equal(moved.indices, ref.indices)
            and moved.data.tobytes() == ref.data.tobytes())


def test_criterion_1_eigenvalue_below_bound(sweep_rows):
    worst_slack = math.inf
    for N in CRITERION_N:
        report = sweep_rows[N]["report"]
        assert report.testfn_variant == "two-sided"
        assert report.lambda_n <= report.bound + 1e-6
        h_formula = 3.0 * report.curve_length / (N * BASE_AREA)
        assert abs(report.h - h_formula) <= 1e-12
        worst_slack = min(worst_slack, report.bound - report.lambda_n)
    print(f"[criterion 1] PASS  lambda_2 <= C(eta)(h+h^2) at N={CRITERION_N}, "
          f"smallest margin {worst_slack:.6f}; h matches (n+1)l/(N*4pi) to 1e-12")


def test_criterion_2_sweep_reaches_any_epsilon(sweep_rows):
    hits = {}
    for eps in (0.5, 0.1):
        found = next((N for N in sorted(sweep_rows)
                      if sweep_rows[N]["report"].bound < eps), None)
        assert found is not None
        assert sweep_rows[found]["report"].lambda_n < eps
        hits[eps] = found
    lams = [sweep_rows[N]["report"].lambda_n for N in sorted(sweep_rows)]
    assert all(b <= a * 1.02 for a, b in zip(lams, lams[1:]))
    print(f"[criterion 2] PASS  bound < 0.5 first at N={hits[0.5]}, "
          f"bound < 0.1 first at N={hits[0.1]}; lambda_2 non-increasing in N")


def test_criterion_3_certificate_with_exact_disjointness(sweep_rows):
    worst_gap = -math.inf
    for N, row in sorted(sweep_rows.items()):
        report, pencil, cover = row["report"], row["pencil"], row["cover"]
        slack = 1e-7 * report.scale
        assert report.lambda_n <= report.certificate + slack
        dist = lift_distances(cover)
        fs = build_test_functions(cover, collar_data(cover, dist), dist)
        GK, GB = cross_gram(pencil, fs)
        off = ~np.eye(len(fs), dtype=bool)
        assert (GK[off] == 0.0).all() and (GB[off] == 0.0).all()
        worst_gap = max(worst_gap, report.lambda_n - report.certificate)
    print(f"[criterion 3] PASS  lambda_2 <= max Rayleigh quotient on every row "
          f"(worst gap {worst_gap:.3e}); all cross terms exactly zero")


def test_criterion_4_sparse_agrees_with_dense(base_levels, small_cover):
    worst = 0.0
    rng = np.random.default_rng(0)
    for trial in range(20):
        size = int(rng.integers(24, 97))
        pencil = _random_pencil(rng, size, singular=trial % 2 == 0)
        sparse = solve_smallest(pencil, count=6, tol=1e-9, seed=0)
        dense = dense_oracle(pencil, count=6)
        gap = np.abs(sparse.values - dense.values)
        assert (gap <= 1e-8 * np.maximum(1.0, np.abs(dense.values))).all()
        worst = max(worst, float(gap.max()))
    meshes = [base_levels[0][0], base_levels[1][0], small_cover.surface]
    for surface in meshes:
        pencil = assemble(surface)
        assert pencil.dof <= 500
        sparse = solve_smallest(pencil, count=6, tol=1e-9, seed=0)
        dense = dense_oracle(pencil, count=6)
        gap = np.abs(sparse.values - dense.values)
        assert (gap <= 1e-8 * np.maximum(1.0, np.abs(dense.values))).all()
        worst = max(worst, float(gap.max()))
    print(f"[criterion 4] PASS  20 random pencils + {len(meshes)} meshes <= 500 dof, "
          f"6 smallest eigenvalues, worst sparse-vs-dense gap {worst:.3e}")


def test_criterion_5_structural_invariants(base_levels, sweep_rows):
    for surface, _ in base_levels:
        assert abs(surface.total_area() - BASE_AREA) <= 1e-8
        assert surface.euler_characteristic() == -2
    for N, row in sorted(sweep_rows.items()):
        cover = row["cover"]
        base = cover.base
        assert (cover.surface.euler_characteristic()
                == cover.degree * base.euler_characteristic())
        areas = cover.surface.triangle_areas()
        target = N * base.total_area()
        for i in range(1, cover.n + 2):
            assert abs(float(areas[cover.piece == i].sum()) - target) <= 1e-8
    cover = sweep_rows[2]["cover"]
    pencil = sweep_rows[2]["pencil"]
    assert _permuted_bits_equal(pencil.stiffness, cover.deck_vertex)
    assert _permuted_bits_equal(pencil.mass, cover.deck_vertex)
    print("[criterion 5] PASS  area = 4pi(g-1) at all levels (1e-8); chi "
          "multiplies by the degree exactly; deck relabeling fixes K and B "
          "bitwise; piece areas = N * area(base) (1e-8)")


def test_criterion_6_refinement_ratios(base_spectra):
    lam = np.array([spec.values for _, spec in base_spectra])
    ratios = []
    for k in range(1, 5):
        for j in (1, 2):
            num = lam[j - 1, k] - lam[j, k]
            den = lam[j, k] - lam[j + 1, k]
            assert den > 0
            ratio = num / den
            assert 2.5 <= ratio <= 6.0
            ratios.append(ratio)
    print(f"[criterion 6] PASS  successive-difference ratios for lambda_1..lambda_4 "
          f"over 4 levels in [{min(ratios):.3f}, {max(ratios):.3f}], "
          f"within [2.5, 6.0] (nominal 4)")


def test_criterion_7_collar_area_calibration(sweep_rows, cover_r3):
    worst_r2 = 0.0
    for N, row in sorted(sweep_rows.items()):
        for entry in row["report"].half_collar:
            for area in entry["sides"].values():
                ratio = area / entry["reference"]
                assert ratio <= 1.10
                worst_r2 = max(worst_r2, ratio)
    dist = lift_distances(cover_r3)
    collar = collar_data(cover_r3, dist)
    worst_r3 = 0.0
    for entry in half_collar_areas(cover_r3, collar.t, dist):
        for area in entry["sides"].values():
            ratio = area / entry["reference"]
            assert ratio <= 1.05
            worst_r3 = max(worst_r3, ratio)
    print(f"[criterion 7] PASS  half-collar area / (l sinh t) per lift side: "
          f"max {worst_r2:.4f} at refinement 2 (<= 1.10), "
          f"max {worst_r3:.4f} at refinement 3 (<= 1.05)")


def test_criterion_8_fixed_witness_collapse(sweep_rows):
    ratios = []
    for N in sorted(sweep_rows):
        report = sweep_rows[N]["report"]
        cover = sweep_rows[N]["cover"]
        witness = (report.n + 1) * report.curve_length
        assert witness == 6.0
        assert cover.surface.genus == 3 * N + 1
        ratios.append(report.lambda_n / witness)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    by_N = dict(zip(sorted(sweep_rows), ratios))
    assert by_N[8] < 0.02
    print(f"[criterion 8] PASS  witness length fixed at 6, lambda_2/witness "
          f"strictly decreasing ({ratios[0]:.6f} -> {ratios[-1]:.6f}), "
          f"{by_N[8]:.6f} < 0.02 at N=8; genus = 3N+1 on every row")
