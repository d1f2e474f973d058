"""Generalized symmetric eigensolvers for the P1 pencil (K, B).

Two independent routes to the same spectrum: a sparse shift-invert
Lanczos solver for production meshes, and a dense whitening solve
(eigendecompose B, form B^{-1/2} K B^{-1/2}, eigendecompose that) used
as a cross-check on small problems.  The two share no factorization or
iteration code, so agreement between them is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu
from scipy.sparse.linalg import norm as spnorm

__all__ = [
    "EigensolverError",
    "SpectrumResult",
    "dense_oracle",
    "residuals",
    "solve_smallest",
]

DENSE_ORACLE_MAX_DOF = 2000


class EigensolverError(RuntimeError):
    """The eigensolver failed to converge or was called out of range."""


@dataclass
class SpectrumResult:
    """Smallest eigenpairs of K v = w B v, ascending, B-orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    dof: int
    shift: float
    tol: float


def residuals(K, B, values, vectors) -> np.ndarray:
    """Normwise backward error |Kv - w Bv| / ((|K|_1 + |w| |B|_1) |v|) per eigenpair.

    The matrix norms keep it meaningful for the kernel pair: there Kv and
    w Bv are both roundoff, so a denominator built from them would be too.
    """
    norm_k, norm_b = spnorm(K, 1), spnorm(B, 1)
    out = np.empty(len(values))
    for i, w in enumerate(values):
        v = vectors[:, i]
        denom = (norm_k + abs(w) * norm_b) * np.linalg.norm(v)
        num = np.linalg.norm(K @ v - w * (B @ v))
        out[i] = num / denom if denom > 0 else 0.0
    return out


def solve_smallest(pencil, count: int, tol: float = 1e-9, seed: int = 0,
                   maxiter=None) -> SpectrumResult:
    """Compute the `count` smallest eigenpairs of the pencil.

    Shift-invert Lanczos around a small negative shift (the spectrum is
    nonnegative, so every wanted eigenvalue is on the near side of the
    shift).  `iterations` reports how many times the factorized
    operator was applied.  The starting vector is seeded, so repeated
    runs are reproducible.  Problems too small for the sparse path fall
    back to the dense route.
    """
    K = pencil.stiffness.tocsr()
    B = pencil.mass.tocsr()
    n = K.shape[0]
    if count < 1:
        raise EigensolverError("count must be at least 1")
    if count > n:
        raise EigensolverError(f"asked for {count} eigenvalues of a {n}-dof problem")

    scale = K.diagonal().sum() / n
    sigma = -1e-2 * scale

    if count >= n - 1:
        values, vectors = _dense_pairs(K.toarray(), B.toarray(), count)
        res = residuals(K, B, values, vectors)
        return SpectrumResult(values, vectors, res, iterations=0, dof=n,
                              shift=sigma, tol=tol)

    try:
        lu = splu((K - sigma * B).tocsc())
    except RuntimeError as e:
        raise EigensolverError(f"factorization of K - sigma*B broke down: {e}") from e
    applies = 0

    def apply_inv(x):
        nonlocal applies
        applies += 1
        return lu.solve(x)

    opinv = LinearOperator((n, n), matvec=apply_inv, dtype=np.float64)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    # Solve for a couple of extra pairs with a roomy basis: a Krylov
    # space started from one vector finds repeated eigenvalues only
    # through roundoff, and a tight basis can converge before the
    # second copy of a degenerate pair shows up.
    k_solve = min(count + 2, n - 1)
    ncv = min(n, max(4 * k_solve + 1, 40))
    try:
        values, vectors = eigsh(K, k=k_solve, M=B, sigma=sigma, OPinv=opinv,
                                v0=v0, ncv=ncv, tol=tol, maxiter=maxiter)
    except ArpackNoConvergence as e:
        raise EigensolverError(
            f"Lanczos did not converge within {maxiter or 'default'} iterations: "
            f"{len(e.eigenvalues)} of {k_solve} pairs converged") from e
    order = np.argsort(values)[:count]
    values, vectors = values[order], vectors[:, order]
    res = residuals(K, B, values, vectors)
    return SpectrumResult(values, vectors, res, iterations=applies, dof=n,
                          shift=sigma, tol=tol)


def _dense_pairs(K: np.ndarray, B: np.ndarray, count: int):
    s, U = np.linalg.eigh(B)
    if s.min() <= 0:
        raise EigensolverError("mass matrix is not positive definite")
    whiten = U @ np.diag(1.0 / np.sqrt(s)) @ U.T
    C = whiten @ K @ whiten
    C = 0.5 * (C + C.T)
    w, Y = np.linalg.eigh(C)
    V = whiten @ Y[:, :count]
    return w[:count].copy(), V


def dense_oracle(pencil, count: int) -> SpectrumResult:
    """Dense whitening route to the smallest pairs, as an independent check.

    Shares no shift, factorization, or iteration code with
    solve_smallest; refuses problems larger than DENSE_ORACLE_MAX_DOF.
    """
    n = pencil.stiffness.shape[0]
    if n > DENSE_ORACLE_MAX_DOF:
        raise EigensolverError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_DOF} dof, got {n}")
    if count < 1 or count > n:
        raise EigensolverError(f"asked for {count} of {n} eigenvalues")
    K, B = pencil.stiffness.tocsr(), pencil.mass.tocsr()
    values, vectors = _dense_pairs(K.toarray(), B.toarray(), count)
    res = residuals(K, B, values, vectors)
    return SpectrumResult(values, vectors, res, iterations=0,
                          dof=n, shift=0.0, tol=0.0)
