import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigvalsh
from scipy.sparse import block_diag, csr_matrix, eye

from hypspectra import eigen
from hypspectra.cover import cut_along, cyclic_cover
from hypspectra.eigen import (DENSE_ORACLE_MAX_DOF, CharacterSolver, EigensolverError,
                              dense_oracle, residuals, solve_smallest)
from hypspectra.fem import SparsePencil, assemble, prolongation


def pencil_from_dense(K, B):
    return SparsePencil(stiffness=csr_matrix(K), mass=csr_matrix(B))


def random_pencil(rng, size, singular=False):
    rows = size - 1 if singular else size
    G = rng.standard_normal((rows, size))
    K = G.T @ G
    E = rng.standard_normal((size, size)) / math.sqrt(size)
    B = 0.5 * np.eye(size) + E.T @ E
    return pencil_from_dense(K, B)


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
            # one Lanczos pass; cold starts need 68 applies at level 3 for seeds 0, 2, 3
            assert warm[level].iterations <= 42
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


def test_warm_start_is_seeded():
    rng = np.random.default_rng(7)
    pencil = random_pencil(rng, 48)
    start = rng.standard_normal((48, 5))
    r1, r2, r3 = (solve_smallest(pencil, count=5, tol=1e-9, seed=seed, start=start)
                  for seed in (11, 11, 12))
    assert r1.values.tobytes() == r2.values.tobytes()
    assert r1.vectors.tobytes() == r2.vectors.tobytes()
    assert r1.vectors.tobytes() != r3.vectors.tobytes()


# -- errors -----------------------------------------------------------------------

def test_start_block_must_match_the_dof(base_levels):
    pencil = assemble(base_levels[1][0])
    for start in (np.ones((pencil.dof - 1, 5)), np.ones(pencil.dof)):
        with pytest.raises(EigensolverError):
            solve_smallest(pencil, count=5, start=start)


def test_count_bounds():
    pencil = pencil_from_dense(np.eye(3), np.eye(3))
    with pytest.raises(EigensolverError):
        solve_smallest(pencil, count=0)
    with pytest.raises(EigensolverError):
        solve_smallest(pencil, count=4)


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
    # that no earlier degree solved: 0 and 1/3 at d = 3, 1/6 at d = 6 and
    # 1/12 at d = 12.  No other phase has an eigenvalue below sigma.  Each
    # of the d//2 + 1 phases is factorized unless it had none below a
    # sigma at least as large: 1/2 is skipped at d = 12, and a second
    # visit factorizes only the phases with a positive count.
    rows = [solver.spectrum(d) for d in (3, 6, 12, 6, 3)]
    assert [r.solved for r in rows] == [2, 1, 1, 0, 0]
    assert [r.factorizations for r in rows] == [2, 4, 6, 3, 2]
    again = solver.spectrum(12)
    assert again.solved == again.iterations == 0
    assert again.factorizations == 3


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


# -- inertia counts and the slicing certificate -----------------------------------

def test_count_below_matches_dense_on_random_pencils():
    rng = np.random.default_rng(7)
    for size in (5, 17, 40):
        G = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        E = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        K = G.conj().T @ G
        B = np.eye(size) + E.conj().T @ E / size
        values = eigvalsh(K, B)
        # between neighbours and outside both ends, so no shift is near a root
        shifts = np.r_[values[0] - 1.0, 0.5 * (values[1:] + values[:-1]), values[-1] + 1.0]
        for sigma in shifts:
            assert (eigen._count_below(csr_matrix(K), csr_matrix(B), sigma)
                    == np.count_nonzero(values < sigma))


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_count_below_matches_dense_on_character_pencils(base_r0, mass):
    surface, gamma = base_r0
    cut = cut_along(surface, gamma)
    solver = character_solver(cut, assemble(cut, mass=mass), count=4)
    for phase in [(0, 1), (1, 2), (1, 3), (1, 8)]:
        K, B = solver._pencil(phase)
        values = eigvalsh(K.toarray(), B.toarray())
        lowest = values[:5]
        if phase == (0, 1):
            # the base's double eigenvalue and the kernel
            assert lowest[3] - lowest[2] <= 1e-12 * lowest[3]
            assert abs(lowest[0]) <= 1e-12 * lowest[4]
        delta = 1e-6 * lowest[4]
        for i, value in enumerate(lowest):
            below = int(np.count_nonzero(values < value - delta))
            above = int(np.count_nonzero(values < value + delta))
            assert eigen._count_below(K, B, value - delta) == below
            assert eigen._count_below(K, B, value + delta) == above
            assert above - below == (2 if phase == (0, 1) and i in (2, 3) else 1)


def test_inertia_factorization_off_the_diagonal_names_the_phase(small_cover, monkeypatch):
    real = eigen.splu

    def splu(A, **kwargs):
        lu = real(A, **kwargs)
        if "options" in kwargs and np.iscomplexobj(A.data):
            return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, U=lu.U)
        return lu

    monkeypatch.setattr(eigen, "splu", splu)
    cut = small_cover.cut
    with pytest.raises(EigensolverError,
                       match=r"character k=1 of degree 3: .*perm_r != perm_c"):
        character_solver(cut, assemble(cut), count=4).spectrum(3)


def test_missed_eigenvalue_fails_by_name(small_cover, paired_phases_miss_lowest):
    cut = small_cover.cut
    solver = character_solver(cut, assemble(cut), count=4)
    with pytest.raises(EigensolverError,
                       match=r"character k=1 of degree 3: inertia counts 4 eigenvalues "
                             r"below sigma=\S+, Lanczos returned 2"):
        solver.spectrum(3)
