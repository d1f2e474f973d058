"""Reference constants for the frozen-value tests, and reference routines.

The constants were computed once at 50-digit precision
(devtools/freeze_oracles.py) and rounded to the nearest float64.  The
pipeline reproduces these through different expression orderings, so
comparisons allow a few ulp of relative slack rather than demanding
bitwise equality.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from hypspectra.eigen import dense_oracle
from hypspectra.fem import SparsePencil
from hypspectra.hypgeom import GeometryError, minkowski_dot

FROZEN = {
    # equilateral triangle, all sides 1
    "alpha_111": 0.9187978721780273,
    "cos_alpha_111": 0.6067761335170363,
    "area_111": 0.3851990370557111,
    "midline_111": 0.45810099152546185,
    # right-angled hexagon seams (cuff triples halved inside the formula)
    "seam_222": 1.7049128323580136,
    "seam_123": 2.5870227853823358,
    "seam_231": 1.2579754911284713,
    "seam_312": 2.0052899176126355,
    # collar widths
    "collar_2": 0.7719368329053047,
    "collar_fixed_point": 1.762747174039086,
    "arcsinh_1": 0.881373587019543,
    # bound ingredients for the default base (l = 2, area = 4*pi)
    "c_eta_l2": 2.5908855682824306,
    "sinh_0p4": 0.4107523258028155,
    "area_genus2": 12.566370614359172,
}

# (h, C(eta) * (h + h^2)) for n = 2, l(gamma) = 2, area = 4*pi per N
H_BOUND = {
    1: (0.477464829275686, 1.8277078185683198),
    2: (0.238732414637843, 0.7661911385252823),
    4: (0.1193662073189215, 0.34617987657292176),
    8: (0.05968310365946075, 0.16386101511403103),
    16: (0.029841551829730376, 0.07962327676390805),
}

REL = 1e-13  # a few ulp of float64 headroom


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def canonical_csr_lexsort(rows, cols, vals, n) -> sparse.csr_matrix:
    """Reference canonical summation: every triple sorted by (row, col, value).

    The assembly's summation sorts by value only the groups of three or
    more terms, and must give these bits exactly.
    """
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    summed = np.add.reduceat(vals, starts)
    mat = sparse.csr_matrix((summed, (rows[starts], cols[starts])), shape=(n, n))
    mat.sum_duplicates()
    return mat


def dense_character_values(solver, phase, count=None) -> np.ndarray:
    """The `count` smallest eigenvalues of one character pencil, dense, ascending.

    All of them by default.  The reference for a CharacterSolver's
    inertia counts: `dense_oracle` shares no factorization with them,
    only the assembly of the pencil.
    """
    K, B = solver._pencil(phase)
    return dense_oracle(SparsePencil(stiffness=K, mass=B), count=count or solver.dof).values


def colamd_smallest(pencil, count, tol=1e-9, seed=0):
    """Reference shift-invert Lanczos: K - sigma B factored in SuperLU's COLAMD order.

    Returns (the `count` smallest eigenvalues, ascending; the factors'
    fill).  The reference for a solve in a nested-dissection order:
    SuperLU picks its own column order here, with its default threshold
    pivoting, and the shift is solve_smallest's.
    """
    K, B = pencil.stiffness.tocsc(), pencil.mass.tocsc()
    n = K.shape[0]
    sigma = -1e-2 * K.diagonal().sum() / n
    lu = splu(K - sigma * B)
    opinv = LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(n)
    values = eigsh(K, k=count + 2, M=B, sigma=sigma, OPinv=opinv, v0=v0,
                   ncv=max(4 * (count + 2) + 1, 40), tol=tol, return_eigenvectors=False)
    return np.sort(values)[:count], lu.nnz


def geodesic_direction(p, q):
    """Unit tangent at p pointing along the geodesic toward q (hyperboloid model)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w = q - minkowski_dot(p, q)[..., None] * p
    nrm2 = -minkowski_dot(w, w)
    if np.any(nrm2 <= 0):
        raise GeometryError("cannot take direction between coincident points")
    return w / np.sqrt(nrm2)[..., None]
