"""Generalized Hermitian eigensolvers for P1 pencils and for cyclic covers.

`solve_smallest` is a sparse shift-invert Lanczos solver for one pencil
(K, B), real symmetric or complex Hermitian.  `dense_oracle` reaches the
same spectrum by a dense solve of the shift-inverted pencil
B x = mu (K - tau B) x (LAPACK's generalized Hermitian solver) and
serves as a cross-check on small problems.  The two share no
factorization or iteration code, so agreement between them is
meaningful evidence.

`solve_smallest` factors K - sigma B with SuperLU once per solve and
runs ARPACK on it.  By default SuperLU picks a COLAMD column order,
which knows nothing of the mesh.  A caller that has a better order
passes it: `converge` passes the nested-dissection order that
`fem.dissection` reads off the refinement tree, which cuts the factors'
fill at refinement 5 from 10.1M to 6.3M entries.  Pencils with no face
tree (random pencils) keep COLAMD.

`CharacterSolver` gives the low spectra of cyclic covers without
forming them (Floquet-Bloch theory; Sunada, Ann. Math. 1985).  The deck
group of a degree-d cover splits its functions by the characters
w = exp(2 pi i k / d), and the functions of character k are determined
by their values on one copy of the cut surface, with phase w across the
seam.  So character k is a Hermitian pencil over the base vertices,
built from the cut surface's pencil, and fixed by the phase k/d: covers
of any degree share it, and it is solved once for each number of
eigenvalues asked of it.  Characters k and d-k are complex conjugates
with equal spectra, so each such pair is solved once and its
eigenvalues are counted twice: the double eigenvalues the deck symmetry
forces come out as exact pairs.

Only a few low phases hold the smallest eigenvalues of a cover, and
spectrum slicing finds them (Ericsson & Ruhe, Math. Comp. 35, 1980;
Parlett, The Symmetric Eigenvalue Problem).  By Sylvester's law of
inertia, the eigenvalues of a pencil (K, B) below a shift sigma number
the negative eigenvalues of A = K - sigma B.  The phase enters A only
through the entries that cross the seam, so split the base vertices
into the seam S and the rest I: A_II is real and the same for every
phase, and Haynsworth's inertia additivity (Linear Algebra Appl. 1,
1968) gives In(A(w)) = In(A_II) + In(S(w)) with the seam Schur
complement S(w) = A_SS(w) - A_IS(w)^H A_II^{-1} A_IS(w).  One real
LDL^T factorization of A_II and one solve with the seam columns give
every S(w) as a combination of three small fixed matrices.  A degree's
spectrum solves a few low phases for just enough of their lowest
eigenvalues to hold as many of the cover's as it wants, puts sigma just
above the smallest values found, counts every phase's eigenvalues below
sigma through its S(w), and solves each phase with a positive count for
that many, so Lanczos seldom runs for more than one eigenvalue of a
phase.  Each phase's count must equal the number of its solved
eigenvalues below sigma, so no eigenvalue below sigma is missed without
the solve failing.

The same blocks serve the solves.  The Lanczos shift sigma_L < 0 is the
same for every phase, so one real LDL^T of A_II(sigma_L), made once per
solver, and the seam columns it has solved give every phase's
shift-invert operator: only the s x s seam Schur complement S_L(w)
depends on the phase, and its Cholesky factor replaces a complex sparse
factorization of the whole phase pencil.  The phases are solved by a
short Hermitian Lanczos run (`_lanczos`) that keeps its whole basis, not
by ARPACK, whose complex path is a general non-Hermitian Arnoldi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve, cholesky, eigh, eigh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

__all__ = [
    "CharacterSolver",
    "CharacterSpectrum",
    "EigensolverError",
    "SpectrumResult",
    "dense_oracle",
    "residuals",
    "solve_smallest",
]

DENSE_ORACLE_MAX_DOF = 2000

# Krylov bases as (extra eigenpairs solved for, Krylov vectors per
# eigenpair, least Krylov vectors): ARPACK's basis size for
# solve_smallest, and the steps before the first convergence test of a
# character phase's Lanczos run (_lanczos).  A single pencil may carry
# doubles forced by a symmetry, and a Krylov space started from one
# vector finds the second copy only through roundoff, so solve_smallest
# keeps a roomy basis for a cold start; a warm start's block carries both
# copies, and it solves for the wanted pairs alone (see solve_smallest).
# A character pencil has no deck-forced doubles; the
# symmetries of the base can still force some, and the lean basis finds
# them on the default base (see the dense-oracle tests).  A character
# pencil asked for its lowest eigenvalue alone needs no guard pair: were
# that eigenvalue double, the inertia count would read 2 and the phase
# would be solved again for two (see CharacterSolver).
ROOMY_BASIS = (2, 4, 40)
WARM_BASIS = (0, 3, 16)
CHARACTER_BASIS = (1, 2, 10)
LOWEST_BASIS = (0, 2, 10)

# Relative margin of the slicing shift over the largest wanted
# eigenvalue.  It must exceed the relative error of that computed
# eigenvalue, which the Lanczos tolerance bounds (1e-9 by default); a
# small one leaves the higher phases with no eigenvalue below the shift.
SLICE_MARGIN = 1e-6

# Steps a character phase's Lanczos run may take, and the normwise
# backward error each wanted pair must reach.  The Ritz estimate alone,
# at tol 1e-9, leaves backward errors of 1e-11 to 1e-10 on refine-2
# phases; ARPACK's restarted runs, which test convergence only on a full
# basis, ended far below it.
LANCZOS_STEPS = 200
LANCZOS_BACKWARD = 1e-13

# Seam Schur complements per eigvalsh call.  Stacking every phase of a
# high degree at once costs memory and gains no speed.
SCHUR_CHUNK = 16

# Seam columns per solve with the interior block.  The 2s columns of a
# refine-4 sweep at once would hold a dense 16766 x 256 right-hand side
# (34 MB) beside the solution Z.
SOLVE_COLUMNS = 64


class EigensolverError(RuntimeError):
    """The eigensolver failed to converge or was called out of range."""


@dataclass
class SpectrumResult:
    """Smallest eigenpairs of K v = w B v, ascending, B-orthonormal vectors.

    ncv is the size of the Krylov basis and lu_fill the number of entries
    SuperLU stores for the L and U factors of K - shift B (SuperLU.nnz);
    both are 0 when the pairs came from a dense solve, and lu_fill is 0
    for a character phase, which factors no pencil of its own.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    dof: int
    shift: float
    ncv: int = 0
    lu_fill: int = 0


@dataclass
class CharacterSpectrum:
    """Smallest eigenvalues of a cyclic cover, gathered over its characters.

    values is ascending, and residuals[i] is the backward error of
    values[i]'s eigenpair on its character pencil.  solved counts the
    Lanczos solves this spectrum ran, iterations the operator applies
    spent on them; solves an earlier degree ran add to neither.
    below_sigma is the number of the cover's eigenvalues below the
    slicing shift sigma by inertia, each character pair counted twice;
    it equals the number of solved eigenvalues below sigma.
    """

    values: np.ndarray
    residuals: np.ndarray
    solved: int
    iterations: int
    sigma: float
    below_sigma: int


def _norm1(M) -> float:
    """|M|_1 of a sparse matrix, bit for bit scipy.sparse.linalg.norm(M, 1):
    each column is summed in the row order of scipy's transposed sum."""
    M = M.tocsr()
    return np.bincount(M.indices, weights=np.abs(M.data), minlength=M.shape[1]).max()


def residuals(K, B, values, vectors, norms=None) -> np.ndarray:
    """Normwise backward error |Kv - w Bv| / ((|K|_1 + |w| |B|_1) |v|) per eigenpair.

    The matrix norms keep it meaningful for the kernel pair: there Kv and
    w Bv are both roundoff, so a denominator built from them would be too.
    `norms` is (|K|_1, |B|_1) if the caller has them; else they come from K, B.
    """
    norm_k, norm_b = norms if norms is not None else (_norm1(K), _norm1(B))
    out = np.empty(len(values))
    for i, w in enumerate(values):
        v = vectors[:, i]
        denom = (norm_k + abs(w) * norm_b) * np.linalg.norm(v)
        num = np.linalg.norm(K @ v - w * (B @ v))
        out[i] = num / denom if denom > 0 else 0.0
    return out


def solve_smallest(pencil, count: int, tol: float = 1e-9, seed: int = 0,
                   start=None, order=None) -> SpectrumResult:
    """Compute the `count` smallest eigenpairs of the pencil.

    Shift-invert Lanczos around a small negative shift (the spectrum is
    nonnegative, so every wanted eigenvalue is on the near side of the
    shift).  A complex Hermitian pencil goes through ARPACK's complex
    routine.  `iterations` reports how many times the factorized
    operator was applied.  Problems too small for the sparse path fall
    back to the dense route.

    The starting vector is seeded, so repeated runs are reproducible.
    Without `start` it is a standard normal vector of the seed, and the
    Krylov basis is ROOMY_BASIS: two pairs beyond `count` and at least 40
    vectors, so that a second copy of a double eigenvalue is found.
    `start` is a block of columns over the pencil's dof, such as the
    eigenvectors of a coarser mesh interpolated onto this one; the
    starting vector is then the block times a standard normal vector of
    the seed, one coefficient per column, and the basis is WARM_BASIS:
    exactly `count` pairs and 16 vectors.  ARPACK tests convergence only
    when its basis is full, so pairs beyond `count`, which the block does
    not carry, would cost every warm solve a full roomy basis (41
    applies for five pairs); the lean basis converges in about 25.

    `order` is a permutation of the dof, such as `fem.dissection` of the
    pencil's mesh.  K - sigma B is then factored as A[order][:, order]
    in that order, in SuperLU's symmetric mode with no column
    reordering and no pivoting, and the operator permutes each vector
    in and out.  Without it SuperLU orders the columns by COLAMD.
    """
    K = pencil.stiffness.tocsr()
    B = pencil.mass.tocsr()
    n = K.shape[0]
    if count < 1:
        raise EigensolverError("count must be at least 1")
    if count > n:
        raise EigensolverError(f"asked for {count} eigenvalues of a {n}-dof problem")
    if start is not None:
        start = np.asarray(start)
        if start.ndim != 2 or start.shape[0] != n:
            raise EigensolverError(f"start block of shape {start.shape} does not "
                                   f"have {n} rows")
    if order is not None and not np.array_equal(np.sort(order), np.arange(n)):
        raise EigensolverError(f"order is not a permutation of the {n} dof")
    dtype = np.result_type(K.dtype, B.dtype, np.float64)
    scale = K.diagonal().sum().real / n
    sigma = -1e-2 * scale
    # ARPACK's symmetric routine needs k < n, the complex one k < n - 1.
    k_max = n - 2 if np.issubdtype(dtype, np.complexfloating) else n - 1

    if count >= k_max:
        values, vectors = _dense_pairs(K.toarray(), B.toarray(), count)
        res = residuals(K, B, values, vectors)
        return SpectrumResult(values, vectors, res, iterations=0, dof=n, shift=sigma)

    A, options = K - sigma * B, {}
    if order is not None:
        # K - sigma B is positive definite, so the diagonal pivots of the
        # given order are stable and SuperLU need not reorder or pivot.
        A = A[order][:, order]
        options = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0,
                   "options": {"SymmetricMode": True}}
    try:
        lu = splu(A.tocsc(), **options)
    except RuntimeError as e:
        raise EigensolverError(f"factorization of K - sigma*B broke down: {e}") from e
    applies = 0

    def apply_inv(x):
        nonlocal applies
        applies += 1
        if order is None:
            return lu.solve(x)
        y = np.empty_like(x)
        y[order] = lu.solve(x[order])
        return y

    opinv = LinearOperator((n, n), matvec=apply_inv, dtype=dtype)
    rng = np.random.default_rng(seed)
    if start is None:
        v0 = rng.standard_normal(n).astype(dtype)
    else:
        v0 = (start @ rng.standard_normal(start.shape[1])).astype(dtype)
    extra, per_pair, least = ROOMY_BASIS if start is None else WARM_BASIS
    k_solve = min(count + extra, k_max)
    ncv = min(n, max(per_pair * k_solve + 1, least))
    try:
        values, vectors = eigsh(K, k=k_solve, M=B, sigma=sigma, OPinv=opinv,
                                v0=v0, ncv=ncv, tol=tol)
    except ArpackNoConvergence as e:
        raise EigensolverError(
            f"Lanczos did not converge: {len(e.eigenvalues)} of {k_solve} "
            "pairs converged") from e
    order = np.argsort(values)[:count]
    values, vectors = values[order], vectors[:, order]
    res = residuals(K, B, values, vectors)
    return SpectrumResult(values, vectors, res, iterations=applies, dof=n,
                          shift=sigma, ncv=ncv, lu_fill=lu.nnz)


def _lanczos(K, B, sigma: float, solve, count: int, basis, tol: float,
             seed: int) -> SpectrumResult:
    """The `count` smallest eigenpairs of (K, B) by Hermitian shift-invert Lanczos.

    `solve(b)` applies (K - sigma B)^{-1}, which must be positive
    definite.  The operator (K - sigma B)^{-1} B is self-adjoint in the
    B inner product, and its eigenvalues theta = 1/(lambda - sigma) are
    largest at the smallest lambda.  Each step applies it once to the
    newest basis vector and B-orthogonalises the result against the
    whole basis, twice (classical Gram-Schmidt), so the basis stays
    B-orthonormal to roundoff and the Ritz pairs of the tridiagonal
    projection need no restart.  The basis and its image under B are
    stored one vector per row, for the reorthogonalisation reads them
    whole at every step.  The starting vector is a standard normal
    vector of the seed.

    `basis` is (extra, per_pair, least): the first convergence test
    comes after max(per_pair * k + 1, least) steps, and each test looks
    at the k = count + extra largest Ritz values, for the second copy of
    a double eigenvalue enters a Krylov space only through roundoff and
    may be the last to show.  The run stops when every tested pair's
    Ritz estimate is at most tol * theta (ARPACK's test) and every
    wanted pair's normwise backward error on (K, B), which the Lanczos
    relation gives as |y_m| |(K - sigma B) r| / (theta (|K|_1 +
    |lambda| |B|_1) |x|) for the residual vector r, is at most
    LANCZOS_BACKWARD; |K|_1 and |B|_1 are taken once per run, and x and
    the backward errors are formed only once every Ritz estimate passes.
    A run still short after LANCZOS_STEPS steps raises.  `iterations` is
    the number of steps, one apply of `solve` each, and
    lambda = sigma + 1/theta.
    """
    n = K.shape[0]
    dtype = np.result_type(K.dtype, B.dtype, np.float64)
    extra, per_pair, least = basis
    k = min(count + extra, n)
    first = min(n, max(per_pair * k + 1, least))
    cap = min(n, LANCZOS_STEPS)
    Q = np.empty((first, n), dtype)
    P = np.empty_like(Q)            # conj(B q) per row, so P w holds the B inner products
    alpha, beta = np.empty(cap), np.empty(cap)
    norms = norm_k, norm_b = _norm1(K), _norm1(B)
    q = np.random.default_rng(seed).standard_normal(n).astype(dtype)
    bq = B @ q
    scale = math.sqrt(np.vdot(q, bq).real)
    Q[0], bq = q / scale, bq / scale
    P[0] = np.conj(bq)
    for m in range(1, cap + 1):
        w = solve(bq)
        alpha[m - 1] = (P[m - 1] @ w).real
        for _ in range(2):
            w -= (P[:m] @ w) @ Q[:m]
        bq = B @ w
        beta[m - 1] = math.sqrt(max(np.vdot(w, bq).real, 0.0))
        if m >= first or beta[m - 1] == 0.0:
            theta, Y = eigh_tridiagonal(alpha[:m], beta[:m - 1])
            theta, Y = theta[:-k - 1:-1], Y[:, :-k - 1:-1]
            if np.all(beta[m - 1] * np.abs(Y[-1]) <= tol * theta):
                values, X = sigma + 1.0 / theta, Y.T @ Q[:m]
                backward = (np.abs(Y[-1, :count]) * np.linalg.norm(K @ w - sigma * bq)
                            / (theta[:count] * (norm_k + np.abs(values[:count]) * norm_b)
                               * np.linalg.norm(X[:count], axis=1)))
                if np.all(backward <= LANCZOS_BACKWARD):
                    break
        if m == cap:
            raise EigensolverError(f"Lanczos did not converge in {cap} steps")
        if m == len(Q):
            more = np.empty((min(m, cap - m), n), dtype)
            Q, P = np.vstack([Q, more]), np.vstack([P, more])
        Q[m], bq = w / beta[m - 1], bq / beta[m - 1]
        P[m] = np.conj(bq)
    values, vectors = values[:count], X[:count].T
    return SpectrumResult(values, vectors, residuals(K, B, values, vectors, norms),
                          iterations=m, dof=n, shift=sigma, ncv=m)


def _dense_pairs(K: np.ndarray, B: np.ndarray, count: int):
    """The `count` smallest eigenpairs of the dense pencil (K, B), B-orthonormal.

    Solves the shift-inverted pencil B x = mu (K - tau B) x, with tau < 0
    so that K - tau B is positive definite for a semidefinite K, and
    returns tau + 1/mu for the largest mu.  The eigenvalues near 0 keep
    their relative accuracy: on a refinement-2 character pencil with
    lambda_1 near 1e-6, a plain (K, B) solve put it 5.7e-7 (relative)
    away from Lanczos, this one 8e-9.
    """
    n = K.shape[0]
    try:
        cholesky(B, check_finite=False)
    except LinAlgError as e:
        raise EigensolverError("mass matrix is not positive definite") from e
    scale = K.diagonal().real.mean()
    tau = -1e-2 * scale if scale > 0 else -1.0
    try:
        # gvx computes a few pairs fastest, gvd all of them
        subset = [n - count, n - 1] if count < n else None
        mu, X = eigh(B, K - tau * B, subset_by_index=subset,
                     driver="gvx" if subset else "gvd")
    except LinAlgError as e:
        raise EigensolverError(f"K - tau*B is not positive definite at tau={tau!r}") from e
    mu, X = mu[::-1], X[:, ::-1]
    return tau + 1.0 / mu, X / np.sqrt(mu)


def dense_oracle(pencil, count: int) -> SpectrumResult:
    """Dense route to the smallest pairs, as an independent check.

    A dense solve of the shift-inverted pencil (`_dense_pairs`) that
    shares no factorization or iteration code with solve_smallest;
    refuses problems larger than DENSE_ORACLE_MAX_DOF.
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
    return SpectrumResult(values, vectors, res, iterations=0, dof=n, shift=0.0)


def _phase_parts(pencil, base_vertex: np.ndarray, seam) -> tuple:
    """The cut pencil's entries summed onto the base pattern, by phase.

    Returns (indptr, indices, stiffness, mass).  stiffness[p] and
    mass[p] are CSR data arrays over one shared base pattern: p = 0 sums
    the entries whose two vertices are both on the seam circle or both
    off it, p = 1 those whose column vertex alone is on it, p = 2 those
    whose row vertex alone is on it.  Character w's pencil has data
    [p0 + w p1 + conj(w) p2].
    """
    V = int(base_vertex.max()) + 1
    on_seam = np.zeros(len(base_vertex), dtype=bool)
    on_seam[np.asarray(seam, dtype=np.int64)] = True
    K, B = pencil.stiffness.tocoo(), pencil.mass.tocoo()
    row = np.concatenate([K.row, B.row])
    col = np.concatenate([K.col, B.col])
    keys, pos = np.unique(base_vertex[row] * V + base_vertex[col], return_inverse=True)
    phase = np.where(on_seam[row] == on_seam[col], 0, np.where(on_seam[col], 1, 2))
    slot = phase * len(keys) + pos

    def parts(sel, data):
        summed = np.bincount(slot[sel], weights=data, minlength=3 * len(keys))
        return summed.reshape(3, len(keys))

    indptr = np.searchsorted(keys, np.arange(V + 1) * V)
    indices = keys % V
    return (indptr, indices, parts(slice(0, K.nnz), K.data),
            parts(slice(K.nnz, None), B.data))


def _character(phase: tuple):
    """Character value w = exp(2 pi i p / q) of phase p/q, a real +-1 when q <= 2."""
    p, q = phase
    return np.exp(2j * np.pi * p / q) if q > 2 else (-1.0) ** p


def _seam_blocks(parts, inner: int) -> list:
    """The phase parts cut into interior and seam blocks, for K and for B.

    The first `inner` base vertices are I, the rest the seam S.  Returns
    one (II, X, SS) per matrix: II is the I x I block, which no phase
    changes; X holds the p = 0 and p = 1 parts of the I x S block side by
    side; SS stacks the three parts of the S x S block, dense.  Raises
    unless the p = 1 part has its columns and the p = 2 part its rows on
    the seam, for then the phase changes no other block, and the S x I
    block of character w is the conjugate transpose of X0 + w X1.
    """
    indptr, indices, *matrices = parts
    V = len(indptr) - 1
    blocks = []
    for data in matrices:
        p0, p1, p2 = (sparse.csr_matrix((d, indices, indptr), shape=(V, V)) for d in data)
        if p1[:, :inner].count_nonzero() or p2[:inner].count_nonzero():
            raise EigensolverError("seam Schur complement: a phase-dependent entry "
                                   "lies off the seam's rows and columns")
        blocks.append((p0[:inner, :inner].tocsc(),
                       sparse.hstack([m[:inner, inner:] for m in (p0, p1)], format="csc"),
                       np.stack([m[inner:, inner:].toarray() for m in (p0, p1, p2)])))
    return blocks


class CharacterSolver:
    """The smallest eigenvalues of the cyclic covers of one cut surface.

    `pencil` is assembled on the base cut open along the covers' curve:
    base_vertex[j] is the base vertex of cut vertex j, and `seam` lists
    the cut vertices of the boundary circle that copy m glues to the
    other circle of copy m+1.  A function of character w on a cover
    takes w^m phi(base_vertex[j]) at cut vertex j of copy m, and
    w^(m+1) phi on the seam, so the pencil of phi is (P^H K P, P^H B P),
    where P maps cut vertex j to base vertex base_vertex[j] with phase w
    on the seam.

    `spectrum(d)` slices the spectrum at a shift sigma.  It solves the
    boot phases k/d, k = 0..min(count//2, d//2), for ceil(count/d)
    eigenvalues each (one whenever d >= count), which are at least
    count eigenvalues of the cover; puts sigma at SLICE_MARGIN above the
    count-th smallest of them; and counts each phase k/d, k in 0..d//2,
    below sigma by inertia.  Each phase with count c is then solved for
    max(c, ceil(count/d)) eigenvalues if it is a boot phase, c if not,
    so Lanczos runs only on boot phases and phases whose count is
    positive.  A phase that returns fewer eigenvalues than asked, or
    whose count differs from its solved eigenvalues below sigma, fails
    the spectrum by name.  The counts come from the seam Schur
    complement (Haynsworth): with S the base vertices of the seam and I
    the rest, A(w) = K(w) - sigma B(w) has the inertia of A_II plus
    that of
    S(w) = (SS0 - G00 - G11) + w (SS1 - G01) + conj(w) (SS2 - G10),
    where SSp is the p-th phase part of A_SS, and Gij = Xi^T A_II^{-1} Xj
    for the p = 0 and p = 1 parts X0, X1 of A_IS.  So one real LDL^T of
    A_II and one solve with the 2s columns of X count every phase of a
    degree, and each phase costs one s x s Hermitian eigvalsh.

    Each phase is solved in lowest terms p/q with w = exp(2 pi i p / q),
    the first time any degree asks it for a given number of eigenvalues,
    and each such solve keeps only its eigenvalues and residuals, so a
    degree's spectrum has the same bits whichever degrees came before.
    Each solve is a Hermitian shift-invert Lanczos run (`_lanczos`), with
    LOWEST_BASIS for one eigenvalue and CHARACTER_BASIS for more; a
    phase with 0 < p/q < 1/2 stands for k and d-k, so it lists each
    eigenvalue twice.  Every run shares one shift sigma_L, one real
    LDL^T of A_II(sigma_L) and the transposed seam columns X^T, all
    formed once per solver at its first solve: with Z = A_II^{-1}
    [X0 X1], phase w's solve is y = A_II^{-1} b_I, x_S = S_L(w)^{-1}
    (b_S - (X0 + w X1)^H y), x_I = y - (Z0 + w Z1) x_S, where S_L(w) is
    the seam Schur complement at sigma_L, positive definite, and factored
    by Cholesky once per phase.  So a spectrum factors one sparse matrix,
    its A_II(sigma) for the counts, and the solver one more.  A
    spectrum's `iterations` are its Lanczos steps, one operator apply
    each.
    """

    def __init__(self, pencil, base_vertex, seam, count: int, tol: float, seed: int):
        if count < 2:
            raise EigensolverError("count must be at least 2: the slicing shift "
                                   "must lie above the kernel")
        base_vertex = np.asarray(base_vertex, dtype=np.int64)
        seam = np.asarray(seam, dtype=np.int64)
        self.dof = int(base_vertex.max()) + 1
        self.count, self.tol, self.seed = count, tol, seed
        # Number the base vertices off the seam first and those on it
        # last, each in base order, so every phase pencil is blocked as
        # [I; S] and a solve needs no permutation.
        on_seam = np.zeros(self.dof, dtype=bool)
        on_seam[base_vertex[seam]] = True
        rank = np.empty(self.dof, dtype=np.int64)
        rank[np.argsort(on_seam, kind="stable")] = np.arange(self.dof)
        self._parts = _phase_parts(pencil, rank[base_vertex], seam)
        self._seam = _seam_blocks(self._parts, self.dof - int(np.count_nonzero(on_seam)))
        self._solves = {}

    def spectrum(self, degree: int) -> CharacterSpectrum:
        """The `count` smallest eigenvalues of the degree-`degree` cover."""
        if degree < 1:
            raise EigensolverError("cover degree must be at least 1")
        if self.count > degree * self.dof:
            raise EigensolverError(
                f"asked for {self.count} eigenvalues of a {degree * self.dof}-dof cover")
        phases = []
        for k in range(degree // 2 + 1):
            g = math.gcd(k, degree)
            phases.append((k // g, degree // g))
        copies = [2 if q > 2 else 1 for _, q in phases]
        lean = -(-self.count // degree)
        boot = min(self.count // 2, degree // 2) + 1
        solved = applies = below = 0

        def failure(k, why):
            return EigensolverError(f"character k={k} of degree {degree}: {why}")

        def solve(k, want):
            nonlocal solved, applies
            key = phases[k], want
            if key not in self._solves:
                try:
                    result = self._solve(*key)
                except EigensolverError as e:
                    raise failure(k, e) from e
                if len(result.values) < want:
                    raise failure(k, f"Lanczos returned {len(result.values)} of the "
                                     f"{want} eigenvalues asked for")
                self._solves[key] = (np.repeat(result.values, copies[k]),
                                     np.repeat(result.residuals, copies[k]))
                solved, applies = solved + 1, applies + result.iterations
            return self._solves[key]

        found = np.concatenate([solve(k, lean)[0] for k in range(boot)])
        sigma = float(np.sort(found)[self.count - 1]) * (1 + SLICE_MARGIN)
        try:
            counts = self._counts(phases, sigma)
        except EigensolverError as e:
            raise EigensolverError(f"seam Schur complement of degree {degree} at "
                                   f"sigma={sigma!r}: {e}") from e
        parts = []
        for k in range(len(phases)):
            counted = copies[k] * int(counts[k])
            want = max(int(counts[k]), lean if k < boot else 0)
            part = solve(k, want) if want else (np.empty(0), np.empty(0))
            returned = int(np.count_nonzero(part[0] < sigma))
            if returned != counted:
                raise failure(k, f"inertia counts {counted} eigenvalues below "
                                 f"sigma={sigma!r}, Lanczos returned {returned}")
            below += counted
            parts.append(part)
        values, res = (np.concatenate(x) for x in zip(*parts))
        order = np.argsort(values, kind="stable")[:self.count]
        return CharacterSpectrum(values=values[order], residuals=res[order],
                                 solved=solved, iterations=applies, sigma=sigma,
                                 below_sigma=below)

    def _counts(self, phases: list, sigma: float) -> np.ndarray:
        """Eigenvalues below sigma of each phase's character pencil, by inertia."""
        negative, _, _, _, (fixed, cross, cross_h) = self._interior(sigma, keep_z=False)
        w = np.array([_character(phase) for phase in phases], dtype=complex)[:, None, None]
        counts = np.full(len(phases), negative)
        for at in range(0, len(phases), SCHUR_CHUNK):
            chunk = w[at:at + SCHUR_CHUNK]
            schur = fixed + chunk * cross + np.conj(chunk) * cross_h
            counts[at:at + SCHUR_CHUNK] += np.count_nonzero(np.linalg.eigvalsh(schur) < 0,
                                                            axis=1)
        return counts

    def _interior(self, sigma: float, keep_z: bool) -> tuple:
        """A_II = K_II - sigma B_II factored as LDL^T, and the seam Schur parts at sigma.

        SuperLU in symmetric mode, with no threshold pivoting, factors
        P A_II P^T = L U with one permutation P, and then U = D L^T: the
        negative entries of D are A_II's negative eigenvalues (Sylvester).
        Returns (the number of those, the factorization, X = [X0 X1],
        Z = A_II^{-1} X, (fixed, cross, cross_h)), where S(w) = fixed +
        w cross + conj(w) cross_h is the seam Schur complement of A(w).
        Z is solved SOLVE_COLUMNS columns at a time, and kept whole only
        if `keep_z` (it is None otherwise).
        """
        (KII, KX, KSS), (BII, BX, BSS) = self._seam
        try:
            lu = splu(KII - sigma * BII, permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0, options={"SymmetricMode": True})
        except RuntimeError as e:
            raise EigensolverError(f"LDL^T of the interior block A_II broke down: {e}") from e
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise EigensolverError("LDL^T of the interior block A_II pivoted off the "
                                   "diagonal (perm_r != perm_c), so its pivots do not "
                                   "give the inertia")
        pivots = lu.U.diagonal()
        if not np.all(np.isfinite(pivots) & (pivots != 0)):
            raise EigensolverError("the interior block A_II is singular")
        X = KX - sigma * BX
        Z = np.empty(X.shape) if keep_z else None
        G = np.empty((X.shape[1], X.shape[1]))
        for at in range(0, X.shape[1], SOLVE_COLUMNS):
            z = lu.solve(X[:, at:at + SOLVE_COLUMNS].toarray())
            G[:, at:at + SOLVE_COLUMNS] = X.T @ z
            if keep_z:
                Z[:, at:at + SOLVE_COLUMNS] = z
        if not np.all(np.isfinite(G)):
            raise EigensolverError("the solve with the interior block A_II is not finite")
        s = G.shape[0] // 2
        SS = KSS - sigma * BSS
        schur = SS[0] - G[:s, :s] - G[s:, s:], SS[1] - G[:s, s:], SS[2] - G[s:, :s]
        return int(np.count_nonzero(pivots < 0)), lu, X, Z, schur

    @cached_property
    def _shift(self) -> tuple:
        """The Lanczos shift sigma_L, the interior factorization at it, and X^T.

        sigma_L = -1e-2 trace(K(w))/dof is the same for every phase w,
        for the phase parts p = 1, 2 hold no diagonal entry.  A_II(sigma_L)
        is positive definite, so its LDL^T serves every phase's solve, and
        so does the transpose of its seam columns X = [X0 X1].
        """
        indptr, indices, kparts, _ = self._parts
        trace = sparse.csr_matrix((kparts[0], indices, indptr)).diagonal().sum()
        sigma = -1e-2 * trace / self.dof
        interior = self._interior(sigma, keep_z=True)
        return sigma, interior, interior[2].T

    def _pencil(self, phase: tuple):
        """(K, B) of phase p/q's character w = exp(2 pi i p / q) over the base vertices.

        The vertices off the seam come first and those on it last, each
        in base order.
        """
        w = _character(phase)
        indptr, indices, kparts, bparts = self._parts
        V = self.dof
        return tuple(sparse.csr_matrix((c[0] + w * c[1] + np.conj(w) * c[2], indices, indptr),
                                       shape=(V, V)) for c in (kparts, bparts))

    def _solve(self, phase: tuple, want: int) -> SpectrumResult:
        """The `want` smallest eigenpairs of phase p/q's character pencil."""
        K, B = self._pencil(phase)
        basis = LOWEST_BASIS if want == 1 else CHARACTER_BASIS
        return _lanczos(K, B, self._shift[0], self._inverse(phase), want, basis,
                        self.tol, self.seed)

    def _inverse(self, phase: tuple):
        """b -> (K(w) - sigma_L B(w))^{-1} b for phase p/q, from the shared factorization.

        By blocks: y = A_II^{-1} b_I, then the seam part x_S = S_L(w)^{-1}
        (b_S - (X0 + w X1)^H y), and x_I = y - (Z0 + w Z1) x_S.  Only
        S_L(w) depends on the phase; its Cholesky factorization shows it
        positive definite and gives its s x s inverse once per phase.  A
        complex vector meets the real factorization, X and Z as its real
        and imaginary parts, two columns of one real product.
        """
        sigma, (_, lu, _, Z, (fixed, cross, cross_h)), XT = self._shift
        w = _character(phase)
        s, inner = fixed.shape[0], Z.shape[0]
        try:
            chol = cholesky(fixed + w * cross + np.conj(w) * cross_h, lower=True)
        except LinAlgError as e:
            raise EigensolverError(f"the seam Schur complement S_L(w) at the Lanczos "
                                   f"shift sigma={sigma!r} is not positive definite") from e
        schur_inv = cho_solve((chol, True), np.eye(s))
        dtype = np.result_type(w, np.float64)

        def split(v):
            # the real and imaginary parts of v as columns, or v alone if real
            return v.view(np.float64).reshape(len(v), -1)

        def join(a):
            return np.ascontiguousarray(a).view(dtype)[:, 0]

        def solve(b):
            y = lu.solve(split(b[:inner]))
            edge = join(XT @ y)
            x_s = schur_inv @ (b[inner:] - edge[:s] - np.conj(w) * edge[s:])
            return np.concatenate([join(y - Z @ split(np.concatenate([x_s, w * x_s]))), x_s])

        return solve
