import math

import numpy as np
import pytest
from scipy.sparse import block_diag, csr_matrix, eye

from hypspectra.eigen import (DENSE_ORACLE_MAX_DOF, EigensolverError,
                              dense_oracle, residuals, solve_smallest)
from hypspectra.fem import SparsePencil, assemble


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


# -- errors -----------------------------------------------------------------------

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
