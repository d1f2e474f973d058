import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import block_diag, csr_matrix, eye
from scipy.sparse.linalg import norm as spnorm
from scipy.sparse.linalg import splu

from hypspectra import eigen
from hypspectra.cover import cut_along, cyclic_cover
from hypspectra.eigen import (DENSE_ORACLE_MAX_DOF, CharacterSolver, EigensolverError,
                              dense_oracle, residuals, solve_smallest)
from hypspectra.fem import (SparsePencil, assemble, bisection_codes, dissection,
                            prolongation, refine)
from oracles import (colamd_smallest, dense_character_values, random_pencil,
                     seam_blocks_by_index)


def pencil_from_dense(K, B):
    return SparsePencil(stiffness=csr_matrix(K), mass=csr_matrix(B))


# -- hand-checkable pencils ----------------------------------------------------

def test_two_by_two_analytic():
    pencil = pencil_from_dense([[2.0, -1.0], [-1.0, 2.0]], np.eye(2))
    result = solve_smallest(pencil, count=2)
    assert np.allclose(result.values, [1.0, 3.0], rtol=0, atol=1e-14)
    assert result.iterations == 0       # small problems take the dense route
    assert result.dof == 2


def test_two_by_two_with_kernel():
    pencil = pencil_from_dense([[1.0, -1.0], [-1.0, 1.0]], np.eye(2))
    result = solve_smallest(pencil, count=2)
    assert abs(result.values[0]) <= 1e-14
    assert abs(result.values[1] - 2.0) <= 1e-14
    # the kernel eigenvector is the constant direction
    v0 = result.vectors[:, 0]
    assert abs(abs(v0[0]) - abs(v0[1])) <= 1e-12


def test_zero_stiffness_all_kernel():
    B = np.diag([1.0, 2.0, 3.0, 4.0])
    pencil = pencil_from_dense(np.zeros((4, 4)), B)
    result = solve_smallest(pencil, count=4)
    assert np.abs(result.values).max() <= 1e-14
    # vectors come back B-orthonormal
    gram = result.vectors.T @ B @ result.vectors
    assert np.abs(gram - np.eye(4)).max() <= 1e-10


# -- agreement between the two routes -------------------------------------------

def test_sparse_matches_dense_on_random_pencils():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        size = int(rng.integers(24, 97))
        pencil = random_pencil(rng, size, singular=trial % 2 == 0)
        sparse_result = solve_smallest(pencil, count=6, tol=1e-9, seed=0)
        dense_result = dense_oracle(pencil, count=6)
        gap = np.abs(sparse_result.values - dense_result.values)
        worst = max(worst, float((gap / np.maximum(1.0, np.abs(dense_result.values))).max()))
    assert worst <= 1e-9


def test_sparse_matches_dense_on_meshes(base_levels, small_cover):
    surfaces = [base_levels[0][0], base_levels[1][0], small_cover.surface]
    for surface in surfaces:
        pencil = assemble(surface)
        sparse_result = solve_smallest(pencil, count=6, tol=1e-9, seed=0)
        dense_result = dense_oracle(pencil, count=6)
        gap = np.abs(sparse_result.values - dense_result.values)
        assert (gap <= 1e-8 * np.maximum(1.0, np.abs(dense_result.values))).all()


def test_complex_hermitian_matches_dense():
    rng = np.random.default_rng(5)
    size = 60
    G = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    E = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / size
    pencil = pencil_from_dense(G.conj().T @ G, 0.5 * np.eye(size) + E.conj().T @ E)
    sparse_result = solve_smallest(pencil, count=5, tol=1e-10, seed=0)
    dense_result = dense_oracle(pencil, count=5)
    assert sparse_result.iterations > 0
    assert np.abs(sparse_result.values - dense_result.values).max() <= \
        1e-9 * dense_result.values.max()
    assert sparse_result.residuals.max() <= 1e-9


# -- robustness ------------------------------------------------------------------

def test_degenerate_pairs_are_not_dropped():
    # duplicated block means every eigenvalue has multiplicity two; a
    # tight Krylov basis can miss the second copy
    rng = np.random.default_rng(3)
    block = random_pencil(rng, 40)
    K = block_diag([block.stiffness, block.stiffness]).tocsr()
    B = block_diag([block.mass, block.mass]).tocsr()
    doubled = SparsePencil(stiffness=K, mass=B)
    result = solve_smallest(doubled, count=6, tol=1e-10, seed=0)
    single = dense_oracle(block, count=3)
    expect = np.repeat(single.values, 2)
    assert np.abs(result.values - expect).max() <= 1e-8 * max(1.0, expect.max())


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    pencil = random_pencil(rng, 48)
    r1 = solve_smallest(pencil, count=5, tol=1e-9, seed=11)
    r2 = solve_smallest(pencil, count=5, tol=1e-9, seed=11)
    assert r1.values.tobytes() == r2.values.tobytes()
    assert r1.vectors.tobytes() == r2.vectors.tobytes()
    assert r1.iterations == r2.iterations


def test_seed_changes_values_agree():
    rng = np.random.default_rng(7)
    pencil = random_pencil(rng, 48)
    r1 = solve_smallest(pencil, count=5, tol=1e-10, seed=1)
    r2 = solve_smallest(pencil, count=5, tol=1e-10, seed=2)
    assert np.abs(r1.values - r2.values).max() <= 1e-9 * max(1.0, r1.values.max())


def test_relabeling_preserves_spectrum():
    rng = np.random.default_rng(9)
    pencil = random_pencil(rng, 40)
    perm = rng.permutation(40)
    K = pencil.stiffness.toarray()[np.ix_(perm, perm)]
    B = pencil.mass.toarray()[np.ix_(perm, perm)]
    r1 = solve_smallest(pencil, count=5, tol=1e-10, seed=0)
    r2 = solve_smallest(pencil_from_dense(K, B), count=5, tol=1e-10, seed=0)
    assert np.abs(r1.values - r2.values).max() <= 1e-9 * max(1.0, r1.values.max())


# -- result contract -------------------------------------------------------------

def test_residuals_small_for_nonkernel_pairs(base_r0):
    surface, _ = base_r0
    pencil = assemble(surface)
    result = solve_smallest(pencil, count=6, tol=1e-9, seed=0)
    scale = pencil.stiffness.diagonal().sum() / pencil.dof
    nonkernel = result.values > 1e-8 * scale
    assert nonkernel[1:].all()
    assert result.residuals.max() <= 1e-9         # the kernel pair included
    assert result.iterations > 0
    assert result.shift < 0
    assert result.values[0] <= 1e-10 * scale      # constant mode


def test_residual_formula_zero_guard():
    K = csr_matrix(np.zeros((2, 2)))
    B = csr_matrix(np.eye(2))
    vals = np.array([0.0])
    vecs = np.array([[1.0], [0.0]])
    assert residuals(K, B, vals, vecs)[0] == 0.0


def test_vectors_mass_orthonormal(base_r0):
    surface, _ = base_r0
    pencil = assemble(surface)
    result = solve_smallest(pencil, count=5, tol=1e-9, seed=0)
    gram = result.vectors.T @ (pencil.mass @ result.vectors)
    assert np.abs(gram - np.eye(5)).max() <= 1e-8


# -- warm start across refinement levels ----------------------------------------------

@pytest.fixture(scope="module")
def warm_chains(base_levels):
    """Per seed 0..3: cold and warm-started spectra at refinement 0..3.

    Level 0 is cold in both; each warm level starts from the warm level
    below, interpolated onto its mesh, as `converge` does.
    """
    pencils = [assemble(surface) for surface, _ in base_levels]
    chains = {}
    for seed in range(4):
        cold = [solve_smallest(p, count=5, tol=1e-9, seed=seed) for p in pencils]
        warm = cold[:1]
        for level in range(1, len(pencils)):
            start = prolongation(base_levels[level - 1][0]) @ warm[-1].vectors
            warm.append(solve_smallest(pencils[level], count=5, tol=1e-9, seed=seed,
                                       start=start))
        chains[seed] = cold, warm
    return pencils, chains


def test_warm_start_matches_cold_solve(warm_chains):
    pencils, chains = warm_chains
    for seed, (cold, warm) in chains.items():
        for level in range(1, len(pencils)):
            a, b = warm[level].values, cold[level].values
            assert np.all(np.abs(a[1:] - b[1:]) <= 1e-10 * b[1:]), (seed, level)
            scale = pencils[level].stiffness.diagonal().sum() / pencils[level].dof
            assert abs(a[0]) <= 1e-8 * scale                  # the constant mode
            assert warm[level].residuals.max() <= 1e-9
            # the lean warm basis: about 25 applies, where the roomy cold
            # basis spends 41 on its first pass and 68 at level 3 for seeds 0, 2, 3
            assert warm[level].iterations <= 26
            assert warm[level].ncv == 16
    oracle = dense_oracle(pencils[1], count=5).values
    for _, warm in chains.values():
        assert np.all(np.abs(warm[1].values[1:] - oracle[1:]) <= 1e-10 * oracle[1:])


def test_warm_start_keeps_the_symmetry_double(warm_chains):
    # The default base has a double lambda_2 = lambda_3 that its symmetry
    # forces; a start block from the level below must not lose one copy.
    _, chains = warm_chains
    for _, warm in chains.values():
        for result in warm:
            lam = result.values
            assert abs(lam[2] - lam[3]) <= 1e-9 * lam[2]
            assert lam[4] - lam[3] > 0.1 * lam[3]


@pytest.mark.parametrize("dropped", [3, 4])
def test_warm_start_without_one_wanted_vector(base_levels, warm_chains, dropped):
    # A start block that lacks one wanted eigenvector, one copy of the
    # double lambda_2 = lambda_3 or lambda_4, still leads the lean warm
    # basis to the cold solve's values.
    pencils, chains = warm_chains
    for seed, (cold, warm) in chains.items():
        for level in range(1, len(pencils)):
            block = np.delete(warm[level - 1].vectors, dropped, axis=1)
            start = prolongation(base_levels[level - 1][0]) @ block
            result = solve_smallest(pencils[level], count=5, tol=1e-9, seed=seed,
                                    start=start)
            a, b = result.values, cold[level].values
            assert np.all(np.abs(a[1:] - b[1:]) <= 1e-10 * b[1:]), (seed, level)
            assert result.residuals.max() <= 1e-9


def test_warm_start_is_seeded():
    rng = np.random.default_rng(7)
    pencil = random_pencil(rng, 48)
    start = rng.standard_normal((48, 5))
    r1, r2, r3 = (solve_smallest(pencil, count=5, tol=1e-9, seed=seed, start=start)
                  for seed in (11, 11, 12))
    assert r1.values.tobytes() == r2.values.tobytes()
    assert r1.vectors.tobytes() == r2.vectors.tobytes()
    assert r1.vectors.tobytes() != r3.vectors.tobytes()


# -- nested-dissection factorization order -------------------------------------------

@pytest.fixture(scope="module")
def refined_levels(base_levels):
    """The default base refined 1..4 times."""
    surfaces = [surface for surface, _ in base_levels[1:]]
    return surfaces + [refine(surfaces[-1])[0]]


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_dissection_order_matches_colamd(base_levels, refined_levels, mass):
    # `converge` factors each level in the nested-dissection order read off
    # the refinement tree; the values must be those of SuperLU's own COLAMD
    # order, the double lambda_2 = lambda_3 kept, and the factors smaller.
    codes = bisection_codes(base_levels[0][0])
    for level, surface in enumerate(refined_levels, start=1):
        pencil = assemble(surface, mass=mass)
        reference, reference_fill = colamd_smallest(pencil, count=5)
        result = solve_smallest(pencil, count=5, order=dissection(surface, codes))
        lam = result.values
        assert np.all(np.abs(lam[1:] - reference[1:]) <= 1e-11 * reference[1:]), level
        assert abs(lam[2] - lam[3]) <= 1e-11 * lam[2]
        assert result.residuals.max() <= 1e-9
    assert result.lu_fill <= 0.8 * reference_fill


def test_order_must_be_a_permutation_of_the_dof(base_levels):
    pencil = assemble(base_levels[1][0])
    for order in (np.arange(pencil.dof - 1), np.zeros(pencil.dof, dtype=np.int64)):
        with pytest.raises(EigensolverError, match="permutation"):
            solve_smallest(pencil, count=5, order=order)


# -- errors -----------------------------------------------------------------------

def test_start_block_must_match_the_dof(base_levels):
    pencil = assemble(base_levels[1][0])
    for start in (np.ones((pencil.dof - 1, 5)), np.ones(pencil.dof)):
        with pytest.raises(EigensolverError):
            solve_smallest(pencil, count=5, start=start)


def test_lanczos_breakdown_is_an_eigensolver_error(base_r0, monkeypatch):
    def eigsh(*args, **kwargs):
        raise eigen.ArpackNoConvergence("no convergence", np.zeros(1), np.zeros((1, 1)))

    monkeypatch.setattr(eigen, "eigsh", eigsh)
    with pytest.raises(EigensolverError, match="Lanczos did not converge: 1 of 7 pairs"):
        solve_smallest(assemble(base_r0[0]), count=5)


def test_count_bounds():
    pencil = pencil_from_dense(np.eye(3), np.eye(3))
    with pytest.raises(EigensolverError):
        solve_smallest(pencil, count=0)
    with pytest.raises(EigensolverError):
        solve_smallest(pencil, count=4)


def test_dense_oracle_keeps_small_eigenvalues_relatively_accurate(base_levels):
    # Phase 1/1536 at refinement 2 has lambda_1 near 1e-6, far below the
    # scale of K.  A dense solve of (K, B) itself put it 5.7e-7 (relative)
    # away from Lanczos.  The float64 pencil fixes lambda_1 only to about
    # 1e-14 absolute: both solvers move it by up to 5e-8 relative as
    # their shifts range over -1e-1..-1e-7, so 1e-7 is the floor here.
    surface, gamma = base_levels[2]
    cut = cut_along(surface, gamma)
    K, B = character_solver(cut, assemble(cut), count=4)._pencil((1, 1536))
    pencil = SparsePencil(stiffness=K, mass=B)
    sparse_result = solve_smallest(pencil, count=4, tol=1e-12, seed=0)
    dense_result = dense_oracle(pencil, count=4)
    assert dense_result.values[0] < 1e-5
    rel = np.abs(dense_result.values - sparse_result.values) / sparse_result.values
    assert rel[0] <= 1e-7 and rel[1:].max() <= 1e-10
    gram = dense_result.vectors.conj().T @ (B @ dense_result.vectors)
    assert np.abs(gram - np.eye(4)).max() <= 1e-10


def test_dense_oracle_rejects_indefinite_mass():
    K = np.eye(3)
    B = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(EigensolverError):
        dense_oracle(pencil_from_dense(K, B), count=2)


def test_dense_oracle_rejects_huge_problems():
    n = DENSE_ORACLE_MAX_DOF + 1
    K = eye(n, format="csr")
    B = eye(n, format="csr")
    with pytest.raises(EigensolverError):
        dense_oracle(SparsePencil(stiffness=K, mass=B), count=2)


# -- character solves for cyclic covers --------------------------------------------

def character_solver(cut, pencil, count):
    return CharacterSolver(pencil, cut.base_vertex, cut.right_vertices,
                           count=count, tol=1e-9, seed=0)


def factored_solver(cut):
    """A solver whose shared Lanczos factorization is made already, so a
    fault injected into `splu` afterwards reaches the inertia counts alone."""
    solver = character_solver(cut, assemble(cut), count=4)
    assert solver._shift[0] < 0
    return solver


def cover_characters(cover, mass="consistent", count=None):
    count = cover.n + 2 if count is None else count
    solver = character_solver(cover.cut, assemble(cover.cut, mass=mass), count)
    return solver.spectrum(cover.degree)


def assert_matches(values, reference, scale, rel=1e-10):
    """Relative agreement; lambda_0, the kernel, is measured against scale."""
    assert len(values) == len(reference)
    floor = np.r_[scale, np.abs(reference[1:])]
    assert np.all(np.abs(values - reference) <= rel * floor), (values, reference)


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
@pytest.mark.parametrize("n, N", [(0, 1), (1, 2), (2, 4), (2, 8)])
def test_characters_match_dense_cover(base_r0, n, N, mass):
    surface, gamma = base_r0
    cover = cyclic_cover(surface, gamma, n=n, N=N)
    full = assemble(cover.surface, mass=mass)
    assert full.dof <= 1536
    result = cover_characters(cover, mass)
    scale = full.stiffness.diagonal().sum() / full.dof
    dense = dense_oracle(full, count=full.dof).values
    assert_matches(result.values, dense[:n + 2], scale)
    assert result.below_sigma == np.count_nonzero(dense < result.sigma)
    assert result.residuals.max() <= 1e-12


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_characters_find_degenerate_base_eigenvalues(base_r0, mass):
    # The (2, 2, 2) base has a double eigenvalue among its lowest five.
    # On the identity cover it sits inside the single character k = 0,
    # where no pairing of characters supplies the second copy.
    surface, gamma = base_r0
    cover = cyclic_cover(surface, gamma, n=0, N=1)
    full = assemble(cover.surface, mass=mass)
    reference = dense_oracle(full, count=6).values
    assert reference[3] - reference[2] <= 1e-12 * reference[3]
    result = cover_characters(cover, mass, count=6)
    scale = full.stiffness.diagonal().sum() / full.dof
    assert_matches(result.values, reference, scale)
    assert result.solved == 1


@pytest.mark.parametrize("N", [8, 16])
def test_characters_match_full_cover_solver(base_levels, N):
    surface, gamma = base_levels[1]
    cover = cyclic_cover(surface, gamma, n=2, N=N)
    full = assemble(cover.surface)
    reference = solve_smallest(full, count=4, tol=1e-9, seed=0).values
    scale = full.stiffness.diagonal().sum() / full.dof
    assert_matches(cover_characters(cover).values, reference, scale)


def test_conjugate_characters_give_exact_pairs(base_levels):
    surface, gamma = base_levels[1]
    cover = cyclic_cover(surface, gamma, n=3, N=4)
    result = cover_characters(cover)
    assert result.values[1] == result.values[2]
    assert result.values[3] == result.values[4]
    assert result.residuals[1] == result.residuals[2]
    assert np.all(np.diff(result.values) >= 0)


def test_characters_deterministic_bitwise(small_cover):
    r1, r2 = cover_characters(small_cover), cover_characters(small_cover)
    assert r1.values.tobytes() == r2.values.tobytes()
    assert r1.residuals.tobytes() == r2.residuals.tobytes()
    assert r1.iterations == r2.iterations > 0


def test_characters_reject_bad_arguments(small_cover):
    cut, cut_pencil = small_cover.cut, assemble(small_cover.cut)
    dof = small_cover.surface.num_vertices
    with pytest.raises(EigensolverError):
        character_solver(cut, cut_pencil, count=1)
    with pytest.raises(EigensolverError):
        character_solver(cut, cut_pencil, count=2).spectrum(0)
    with pytest.raises(EigensolverError):
        character_solver(cut, cut_pencil, count=dof + 1).spectrum(3)


def test_character_failure_names_the_character(small_cover):
    cut_pencil = assemble(small_cover.cut)
    broken = SparsePencil(stiffness=0 * cut_pencil.stiffness, mass=0 * cut_pencil.mass)
    with pytest.raises(EigensolverError, match="character k=0 of degree 3"):
        character_solver(small_cover.cut, broken, count=4).spectrum(3)


def test_each_phase_solved_once(small_cover):
    cut = small_cover.cut
    solver = character_solver(cut, assemble(cut), count=4)
    # Lanczos runs on the phases k/d with k <= count//2, in lowest terms,
    # for ceil(count/d) eigenvalues, unless an earlier degree solved them
    # for as many: 0 and 1/3 for two at d = 3; 0, 1/6 and 1/3 for one at
    # d = 6; 1/12 for one at d = 12.  No phase has more eigenvalues below
    # sigma than that.
    rows = [solver.spectrum(d) for d in (3, 6, 12, 6, 3)]
    assert [r.solved for r in rows] == [2, 3, 1, 0, 0]
    assert sorted(solver._solves) == [((0, 1), 1), ((0, 1), 2), ((1, 3), 1), ((1, 3), 2),
                                      ((1, 6), 1), ((1, 12), 1)]
    again = solver.spectrum(12)
    assert again.solved == again.iterations == 0


@pytest.mark.parametrize("d", [4, 5, 48])
def test_degrees_past_count_solve_one_eigenvalue_per_phase(base_levels, d):
    # With d >= count, one eigenvalue from each of the phases k/d,
    # k <= count//2, is enough for sigma, and none of them, nor any
    # other phase, has two eigenvalues below it.
    surface, gamma = base_levels[1]
    cut = cut_along(surface, gamma)
    solver = character_solver(cut, assemble(cut), count=4)
    result = solver.spectrum(d)
    phases = {(k // math.gcd(k, d), d // math.gcd(k, d)) for k in range(3)}
    assert sorted(solver._solves) == sorted((phase, 1) for phase in phases)
    assert result.solved == len(phases)


def test_resolved_phase_matches_dense(small_cover):
    # At d = 2 a count of 5 asks phases 0 and 1/2 for three eigenvalues
    # each.  Phase 0's third is one copy of the base's double eigenvalue,
    # so phase 0 counts four below sigma and is solved again for four.
    cut = small_cover.cut
    solver = character_solver(cut, assemble(cut), count=5)
    result = solver.spectrum(2)
    assert sorted(solver._solves) == [((0, 1), 3), ((0, 1), 4), ((1, 2), 3)]
    assert result.solved == 3
    dense = [dense_character_values(solver, phase) for phase in ((0, 1), (1, 2))]
    reference = np.sort(np.concatenate(dense))
    scale = solver._pencil((0, 1))[0].diagonal().sum() / solver.dof
    assert_matches(result.values, reference[:5], scale)
    assert result.below_sigma == np.count_nonzero(reference < result.sigma) == 6


def test_phase_spectra_independent_of_earlier_degrees(small_cover):
    cut = small_cover.cut
    pencil = assemble(cut)
    warm = character_solver(cut, pencil, count=4)
    for d in (3, 6, 12, 24):
        warm.spectrum(d)
    for d in (8, 24):
        fresh = character_solver(cut, pencil, count=4).spectrum(d)
        cached = warm.spectrum(d)
        assert cached.values.tobytes() == fresh.values.tobytes()
        assert cached.residuals.tobytes() == fresh.residuals.tobytes()


# -- the shared interior factorization and the phase Lanczos -----------------------

PHASES = [(0, 1), (1, 2), (1, 3), (5, 48)]     # w = 1, w = -1 and two complex w


@pytest.mark.parametrize("level", [0, 1])
def test_shared_factorization_solves_every_phase(base_levels, level):
    # The block solve through A_II(sigma_L) and S_L(w) against one
    # complex SuperLU factorization of the whole phase pencil.
    surface, gamma = base_levels[level]
    cut = cut_along(surface, gamma)
    solver = character_solver(cut, assemble(cut), count=4)
    sigma = solver._shift[0]
    rng = np.random.default_rng(3)
    for phase in PHASES:
        K, B = solver._pencil(phase)
        assert abs(sigma + 1e-2 * K.diagonal().sum().real / solver.dof) <= 1e-15 * abs(sigma)
        b = rng.standard_normal(solver.dof)
        if np.iscomplexobj(K.data):
            b = b + 1j * rng.standard_normal(solver.dof)
        direct = splu((K - sigma * B).tocsc()).solve(b)
        x = solver._inverse(phase)(b)
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct), phase


@pytest.mark.parametrize("level", [0, 1])
def test_phase_lanczos_matches_dense(base_levels, level):
    surface, gamma = base_levels[level]
    cut = cut_along(surface, gamma)
    solver = character_solver(cut, assemble(cut), count=4)
    for phase, want in zip(PHASES, (5, 2, 3, 1)):
        result = solver._solve(phase, want)
        K, B = solver._pencil(phase)
        reference = dense_character_values(solver, phase, count=want)
        scale = K.diagonal().sum().real / solver.dof
        floor = np.maximum(np.abs(reference), scale if phase == (0, 1) else 0.0)
        assert np.all(np.abs(result.values - reference) <= 1e-10 * floor), phase
        assert result.residuals.max() <= 1e-12
        gram = result.vectors.conj().T @ (B @ result.vectors)
        assert np.abs(gram - np.eye(want)).max() <= 1e-10
        assert result.iterations == result.ncv >= 10


@pytest.mark.parametrize("level", [0, 1])
def test_norm1_equals_scipy_norm_bitwise(base_levels, level):
    surface, gamma = base_levels[level]
    cut = cut_along(surface, gamma)
    matrices = []
    for mass in ("consistent", "lumped"):
        pencil = assemble(cut, mass=mass)
        matrices += [pencil.stiffness, pencil.mass]
        solver = character_solver(cut, pencil, count=4)
        for phase in PHASES:
            matrices += solver._pencil(phase)
    rng = np.random.default_rng(level)
    for trial in range(6):
        pencil = random_pencil(rng, int(rng.integers(24, 97)), singular=trial % 2 == 0)
        matrices += [pencil.stiffness, pencil.mass]
    assert any(np.iscomplexobj(M.data) for M in matrices)
    for M in matrices:
        assert eigen._norm1(M) == spnorm(M, 1)
    assert eigen._norm1(csr_matrix((6, 6))) == 0.0


@pytest.mark.parametrize("level", [0, 1])
def test_seam_blocks_by_slices_match_fancy_indexing(base_levels, level):
    # The solver numbers the seam last, so its blocks are contiguous
    # slices; cut by the vertex lists they must have the same bits.
    surface, gamma = base_levels[level]
    cut = cut_along(surface, gamma)
    solver = character_solver(cut, assemble(cut), count=4)
    s = len(np.unique(cut.base_vertex[cut.right_vertices]))
    reference = seam_blocks_by_index(solver._parts, np.arange(solver.dof - s, solver.dof))
    for (II, X, SS), (II_ref, X_ref, SS_ref) in zip(solver._seam, reference, strict=True):
        for block, ref in ((II, II_ref), (X, X_ref)):
            assert block.format == ref.format == "csc"
            assert block.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                assert getattr(block, attr).tobytes() == getattr(ref, attr).tobytes()
        assert SS.shape == SS_ref.shape == (3, s, s)
        assert SS.tobytes() == SS_ref.tobytes()


def test_phase_past_the_step_cap_fails_by_name(small_cover, monkeypatch):
    monkeypatch.setattr(eigen, "LANCZOS_STEPS", 8)
    solver = character_solver(small_cover.cut, assemble(small_cover.cut), count=4)
    with pytest.raises(EigensolverError, match="character k=0 of degree 3: Lanczos did not "
                                               "converge in 8 steps"):
        solver.spectrum(3)


def test_indefinite_seam_schur_complement_fails_by_name(small_cover):
    solver = factored_solver(small_cover.cut)
    fixed = solver._shift[1][4][0]
    fixed -= 2 * np.abs(fixed).sum() * np.eye(len(fixed))
    with pytest.raises(EigensolverError,
                       match=r"character k=0 of degree 3: the seam Schur complement S_L\(w\) "
                             r"at the Lanczos shift sigma=\S+ is not positive definite"):
        solver.spectrum(3)


# -- inertia counts and the slicing certificate -----------------------------------

def lowest_terms_phases(max_degree):
    """Every phase k/d with k <= d/2 and d <= max_degree, in lowest terms."""
    return sorted({(k // math.gcd(k, d), d // math.gcd(k, d))
                   for d in range(1, max_degree + 1) for k in range(d // 2 + 1)})


def assert_counts_match_dense(solver, phases, shifts, values):
    """Each shift's counts equal the dense counts, for a shift clear of every eigenvalue.

    values[i] holds the smallest eigenvalues of phases[i]: all of them, or
    enough that the last lies above every shift.
    """
    for v in values:
        assert len(v) == solver.dof or v[-1] > max(shifts)
    for sigma in shifts:
        gap = min(np.abs(v - sigma).min() for v in values)
        assert gap > 1e-9 * abs(sigma), "a test shift sits on an eigenvalue"
        expected = [np.count_nonzero(v < sigma) for v in values]
        assert solver._counts(phases, sigma).tolist() == expected, sigma


def test_count_below_matches_dense_on_random_pencils():
    # A random cut pencil over V + s cut vertices: the last s are the
    # seam, glued to base vertices 0..s-1, which are also cut vertices.
    rng = np.random.default_rng(7)
    for V, s in ((6, 2), (17, 5), (40, 9)):
        size = V + s
        G = rng.standard_normal((size, size))
        E = rng.standard_normal((size, size))
        pencil = pencil_from_dense(G.T @ G, np.eye(size) + E.T @ E / size)
        base_vertex = np.r_[np.arange(V), np.arange(s)]
        solver = CharacterSolver(pencil, base_vertex, np.arange(V, size),
                                 count=2, tol=1e-9, seed=0)
        phases = [(0, 1), (1, 2), (1, 3), (1, 8), (3, 7)]
        values = [dense_character_values(solver, phase) for phase in phases]
        for v in values:
            # between neighbours and outside both ends, so no shift is near a root
            shifts = np.r_[v[0] - 1.0, 0.5 * (v[1:] + v[:-1]), v[-1] + 1.0]
            assert_counts_match_dense(solver, phases, shifts, values)


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_count_below_matches_dense_on_character_pencils(base_levels, mass):
    # Every phase of every degree up to 64, at refinements 0 and 1, with
    # shifts just below and above each of the five lowest eigenvalues of
    # phase 0: the kernel, the base's double eigenvalue and its neighbours.
    phases = lowest_terms_phases(64)
    for surface, gamma in base_levels[:2]:
        cut = cut_along(surface, gamma)
        solver = character_solver(cut, assemble(cut, mass=mass), count=4)
        values = [dense_character_values(solver, phase, count=8) for phase in phases]
        lowest = values[0][:5]
        assert lowest[3] - lowest[2] <= 1e-12 * lowest[3]
        assert abs(lowest[0]) <= 1e-12 * lowest[4]
        delta = 1e-6 * lowest[4]
        assert_counts_match_dense(solver, phases, np.r_[lowest - delta, lowest + delta],
                                  values)


def test_count_below_matches_dense_on_refinement_two(base_levels):
    # A sample of refinement-2 phases, where the seam has 32 vertices.
    surface, gamma = base_levels[2]
    cut = cut_along(surface, gamma)
    solver = character_solver(cut, assemble(cut), count=4)
    phases = [(0, 1), (1, 2), (7, 48), (1, 1536)]
    values = [dense_character_values(solver, phase, count=8) for phase in phases]
    lowest = np.sort(np.concatenate([v[:4] for v in values]))
    # between distinct neighbours, and above them all
    apart = np.diff(lowest) > 1e-6 * lowest[1:]
    shifts = np.r_[0.5 * (lowest[1:] + lowest[:-1])[apart], lowest[-1] * 1.01]
    assert_counts_match_dense(solver, phases, shifts, values)


def test_one_inertia_factorization_per_spectrum(base_levels, monkeypatch):
    real = eigen.splu
    calls = []

    def splu(A, **kwargs):
        calls.append(kwargs)
        return real(A, **kwargs)

    def eigsh(*args, **kwargs):
        raise AssertionError("a character phase ran ARPACK")

    monkeypatch.setattr(eigen, "splu", splu)
    monkeypatch.setattr(eigen, "eigsh", eigsh)
    surface, gamma = base_levels[2]
    cut = cut_along(surface, gamma)
    solver = character_solver(cut, assemble(cut), count=4)
    for d, shared in ((48, 1), (3072, 0)):
        calls.clear()
        result = solver.spectrum(d)
        # one LDL^T of the interior block counts all d//2 + 1 phases; the
        # first spectrum also factors it once at the Lanczos shift, and
        # that factorization serves every phase's solve
        assert len(calls) == 1 + shared
        assert all(kwargs["options"] == {"SymmetricMode": True} for kwargs in calls)
        phases = [(k // math.gcd(k, d), d // math.gcd(k, d)) for k in range(1 + d // 2)]
        solved = [phase for phase in phases if any(phase == p for p, _ in solver._solves)]
        dense = [dense_character_values(solver, phase, count=8) for phase in solved]
        assert all(v[-1] > result.sigma for v in dense)
        below = sum((2 if q > 2 else 1) * np.count_nonzero(v < result.sigma)
                    for (_, q), v in zip(solved, dense))
        assert result.below_sigma == below


def test_inertia_factorization_off_the_diagonal_names_the_seam(small_cover, monkeypatch):
    real = eigen.splu

    def splu(A, **kwargs):
        lu = real(A, **kwargs)
        if "options" in kwargs:
            return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, U=lu.U)
        return lu

    cut = small_cover.cut
    solver = factored_solver(cut)
    monkeypatch.setattr(eigen, "splu", splu)
    with pytest.raises(EigensolverError,
                       match=r"seam Schur complement of degree 3 at sigma=\S+: "
                             r".*perm_r != perm_c"):
        solver.spectrum(3)


@pytest.mark.parametrize("broken, why", [
    ("raises", "LDL^T of the interior block A_II broke down: Factor is exactly singular"),
    ("zero pivot", "the interior block A_II is singular"),
])
def test_singular_interior_block_names_the_seam(small_cover, monkeypatch, broken, why):
    real = eigen.splu

    def splu(A, **kwargs):
        if "options" not in kwargs:
            return real(A, **kwargs)
        if broken == "raises":
            raise RuntimeError("Factor is exactly singular")
        lu = real(A, **kwargs)
        U = lu.U.tocsr(copy=True)
        U[3, 3] = 0.0
        return SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c, U=U, solve=lu.solve)

    cut = small_cover.cut
    solver = factored_solver(cut)
    monkeypatch.setattr(eigen, "splu", splu)
    with pytest.raises(EigensolverError,
                       match=r"seam Schur complement of degree 6 at sigma=\S+: "
                             + re.escape(why)):
        solver.spectrum(6)


def test_phase_dependent_interior_entry_fails_by_name(small_cover, monkeypatch):
    # The Schur complement needs the phase parts p = 1 and 2 to stay on
    # the seam's columns and rows; a part p = 1 reaching the interior
    # block must stop the solver before it counts anything.
    real = eigen._phase_parts

    def phase_parts(*args):
        indptr, indices, kparts, bparts = real(*args)
        return indptr, indices, kparts[[0, 0, 2]], bparts

    monkeypatch.setattr(eigen, "_phase_parts", phase_parts)
    cut = small_cover.cut
    with pytest.raises(EigensolverError, match="seam Schur complement: a phase-dependent"):
        character_solver(cut, assemble(cut), count=4)


def test_missed_eigenvalue_fails_by_name(small_cover, paired_phases_skip_lowest):
    cut = small_cover.cut
    solver = character_solver(cut, assemble(cut), count=4)
    with pytest.raises(EigensolverError,
                       match=r"character k=1 of degree 3: inertia counts 4 eigenvalues "
                             r"below sigma=\S+, Lanczos returned 2"):
        solver.spectrum(3)


def test_short_phase_fails_by_name(small_cover, paired_phases_miss_lowest):
    # d = 3 asks phase 1/3 for two eigenvalues and gets one.
    cut = small_cover.cut
    solver = character_solver(cut, assemble(cut), count=4)
    with pytest.raises(EigensolverError,
                       match="character k=1 of degree 3: Lanczos returned 1 of the 2 "
                             "eigenvalues asked for"):
        solver.spectrum(3)
