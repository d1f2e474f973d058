"""Acceptance suite: one test per certified claim, run on the default family.

Base surface: cuff lengths (2, 2, 2), zero twists, m = 8, refinement 2.
Cover family: n = 2 (three designated lifts), N in {1, 2, 4, 8, 16}.
Criterion 9 runs a sweep up to N = 1024 on the unrefined base.
Each test prints a one-line summary of the measured quantities it checked.
"""

import json
import math

import numpy as np

from hypspectra.bound import boundary_distances, collar_data, piece_ramps, rayleigh
from hypspectra.cli import main
from hypspectra.eigen import dense_oracle, solve_smallest
from hypspectra.fem import assemble
from oracles import random_pencil

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
    assert all(b < a for a, b in zip(lams, lams[1:]))
    print(f"[criterion 2] PASS  bound < 0.5 first at N={hits[0.5]}, "
          f"bound < 0.1 first at N={hits[0.1]}; lambda_2 strictly decreasing in N")


def test_criterion_3_certificate_with_exact_disjointness(sweep_rows, on_cover):
    worst_gap = -math.inf
    for N, row in sorted(sweep_rows.items()):
        report, pencil, cover = row["report"], row["pencil"], row["cover"]
        slack = 1e-7 * report.scale
        assert report.lambda_n <= report.certificate + slack
        # The report's ramps, laid out on the assembled cover.
        cut = cover.cut
        dist = boundary_distances(cut)
        fs = on_cover(cover, *piece_ramps(cut, collar_data(cut, dist, N), dist, N))
        GK, GB = fs @ (pencil.stiffness @ fs.T), fs @ (pencil.mass @ fs.T)
        off = ~np.eye(len(fs), dtype=bool)
        assert (GK[off] == 0.0).all() and (GB[off] == 0.0).all()
        for f in fs:
            assert abs(rayleigh(pencil, f) - report.certificate) <= 1e-12 * report.certificate
        worst_gap = max(worst_gap, report.lambda_n - report.certificate)
    print(f"[criterion 3] PASS  lambda_2 <= max Rayleigh quotient on every row "
          f"(worst gap {worst_gap:.3e}); all cross terms exactly zero; base-level "
          f"quotients equal the cover's to 1e-12")


def test_criterion_4_sparse_agrees_with_dense(base_levels, small_cover):
    worst = 0.0
    rng = np.random.default_rng(0)
    for trial in range(20):
        size = int(rng.integers(24, 97))
        pencil = random_pencil(rng, size, singular=trial % 2 == 0)
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
    base, _ = base_levels[2]           # the sweep's base
    for N, row in sorted(sweep_rows.items()):
        cover = row["cover"]
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


def test_criterion_9_collapse_up_to_N_1024(tmp_path):
    # No cover is built, so a sweep reaches degree 3072 (196608 dof) in
    # about a second on the unrefined base.
    out = tmp_path / "run"
    Ns = (1, 4, 16, 64, 256, 1024)
    assert main(["sweep", "--out", str(out), "--refine", "0", "--n", "2",
                 "--N", ",".join(map(str, Ns))]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert [row["N"] for row in rows] == list(Ns)
    assert all(row["certificate_holds"] and row["bound_holds"] for row in rows)
    assert rows[-1]["dof"] == 3072 * rows[0]["dof"] // 3
    scaled = [row["lambda"][2] * row["N"] ** 2 for row in rows]
    steps = [abs(b / a - 1.0) for a, b in zip(scaled, scaled[1:])]
    assert all(b < a for a, b in zip(steps, steps[1:]))
    assert steps[-1] < 1e-5
    print(f"[criterion 9] PASS  N up to 1024 (degree 3072): lambda_2 N^2 levels off at "
          f"{scaled[-1]:.6f} (last relative step {steps[-1]:.1e}); every row certified")
