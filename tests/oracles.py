"""Reference constants for the frozen-value tests, and reference routines.

The constants were computed once at 50-digit precision
(devtools/freeze_oracles.py) and rounded to the nearest float64.  The
pipeline reproduces these through different expression orderings, so
comparisons allow a few ulp of relative slack rather than demanding
bitwise equality.
"""

import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from hypspectra.eigen import _character, dense_oracle
from hypspectra.fem import SparsePencil
from hypspectra.hypgeom import GeometryError, triangle_areas, validate_triangle_lengths
from hypspectra.surface import TriangulatedSurface, curve_from_sides

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

# Distances r_0..r_5 from the centroid of the right-angled hexagon of
# cuffs (l1, l2, l3) to its corners, keyed by the cuffs; from a Lorentz
# frame walk of the hexagon at 50 digits.
HEXAGON_R = {
    (2.0, 2.0, 2.0): (1.195923982783473,) * 6,
    (0.05, 2.0, 2.0): (3.132381259165819, 3.132381259165819, 2.235843408518897,
                       2.6526498861216385, 2.6526498861216385, 2.235843408518897),
    (15.0, 15.0, 15.0): (3.8942563564343855,) * 6,
}

# (h, C(eta) * (h + h^2)) for n = 2, l(gamma) = 2, area = 4*pi per N
H_BOUND = {
    1: (0.477464829275686, 1.8277078185683198),
    2: (0.238732414637843, 0.7661911385252823),
    4: (0.1193662073189215, 0.34617987657292176),
    8: (0.05968310365946075, 0.16386101511403103),
    16: (0.029841551829730376, 0.07962327676390805),
}

# Cuffs far from the default: very short and very long cuffs give long and
# short seams, and slivers in the centroid fans.
FAR_CUFFS = [(0.1, 0.1, 0.1), (0.002, 2.0, 2.0), (15.0, 15.0, 15.0), (30.0, 30.0, 30.0)]
# Cuff sets the refine-0 sweep tests run on: the default, the far ones, a
# short gamma among default cuffs, and long cuffs with a narrow collar.
SWEEP_CUFFS = [(2.0, 2.0, 2.0), *FAR_CUFFS, (0.05, 2.0, 2.0), (6.0, 6.0, 6.0)]

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


def element_stiffness(lengths) -> np.ndarray:
    """Per-face 3x3 cotangent stiffness of the Euclidean comparison triangle.

    Entry (i, j) couples local corners i and j.  Weights are computed
    from squared lengths and the Euclidean area, with no trigonometric
    calls: cot(angle_k) = (b^2 + c^2 - a_k^2) / (4 * area).
    """
    L = np.asarray(lengths, dtype=float)
    validate_triangle_lengths(L[..., 0], L[..., 1], L[..., 2])
    sq = L**2
    # Numerically stable Heron form, sides sorted descending.
    srt = np.sort(L, axis=-1)
    x, y, z = srt[..., 2], srt[..., 1], srt[..., 0]
    area4 = np.sqrt((x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z)))
    cots = np.empty_like(L)
    for k in range(3):
        cots[..., k] = (sq[..., (k + 1) % 3] + sq[..., (k + 2) % 3] - sq[..., k]) / area4
    elem = np.zeros(L.shape[:-1] + (3, 3))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        w = 0.5 * cots[..., k]
        elem[..., i, j] -= w
        elem[..., j, i] -= w
        elem[..., i, i] += w
        elem[..., j, j] += w
    return elem


def element_mass(lengths) -> np.ndarray:
    """Per-face 3x3 consistent mass using the hyperbolic triangle area."""
    L = np.asarray(lengths, dtype=float)
    T = triangle_areas(L)
    elem = np.zeros(L.shape[:-1] + (3, 3))
    for i in range(3):
        for j in range(3):
            elem[..., i, j] = T / (6.0 if i == j else 12.0)
    return elem


def canonical_sum(rows, cols, n):
    """Summation of COO triples over one pattern: returns vals -> CSR.

    The triples are sorted once, stably, by the key row*n + col.  Each
    group of three or more terms is then sorted by value, stably, so it
    is summed in the same order whatever order the elements were emitted
    in.  A group of two needs no sort: a + b == b + a bitwise.  The
    order is computed once and serves every value array over the pattern.
    """
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=len(keys))
    # Positions of the groups of m >= 3 terms, one (groups, m) block per m.
    blocks = [starts[sizes == m, None] + np.arange(m) for m in np.unique(sizes[sizes >= 3])]
    unique = keys[starts]
    indptr = np.searchsorted(unique, np.arange(n + 1) * n)
    indices = unique % n

    def to_csr(vals) -> sparse.csr_matrix:
        vals = vals[order]
        for pos in blocks:
            vals[pos] = np.sort(vals[pos], axis=1, kind="stable")
        return sparse.csr_matrix((np.add.reduceat(vals, starts), indices, indptr),
                                 shape=(n, n))

    return to_csr


def reference_pencil(surface, mass="consistent") -> SparsePencil:
    """The P1 pencil from the 3x3 element matrices, 9 entries per face.

    The reference for `fem.assemble`, which must give these bits from
    its per-side weights: every element entry goes into its (row, col)
    group, and `canonical_sum` sums each group.
    """
    n = surface.num_vertices
    loc_i = np.broadcast_to(np.arange(3)[:, None], (3, 3))
    loc_j = np.broadcast_to(np.arange(3)[None, :], (3, 3))
    rows = surface.faces[:, loc_i].reshape(-1)
    cols = surface.faces[:, loc_j].reshape(-1)
    pattern = canonical_sum(rows, cols, n)
    K = pattern(element_stiffness(surface.lengths).reshape(-1))
    if mass == "lumped":
        diag = surface.faces.reshape(-1)
        third = np.repeat(triangle_areas(surface.lengths) / 3.0, 3)
        B = canonical_sum(diag, diag, n)(third)
    else:
        B = pattern(element_mass(surface.lengths).reshape(-1))
    return SparsePencil(stiffness=K, mass=B)


def random_pencil(rng, size, singular=False) -> SparsePencil:
    """A random sparse-stored pencil: K = G^T G, of rank size - 1 if `singular`,
    and B = I/2 + E^T E, positive definite."""
    rows = size - 1 if singular else size
    G = rng.standard_normal((rows, size))
    K = G.T @ G
    E = rng.standard_normal((size, size)) / math.sqrt(size)
    B = 0.5 * np.eye(size) + E.T @ E
    return SparsePencil(stiffness=sparse.csr_matrix(K), mass=sparse.csr_matrix(B))


def seam_blocks_by_index(parts, seam) -> list:
    """Reference for `eigen._seam_blocks`: the same blocks cut by fancy
    indexing with the interior and seam vertex lists, in any numbering."""
    indptr, indices, *matrices = parts
    V = len(indptr) - 1
    on_seam = np.zeros(V, dtype=bool)
    on_seam[seam] = True
    inner, S = np.flatnonzero(~on_seam), np.flatnonzero(on_seam)
    blocks = []
    for data in matrices:
        p0, p1, p2 = (sparse.csr_matrix((d, indices, indptr), shape=(V, V)) for d in data)
        blocks.append((p0[inner][:, inner].tocsc(),
                       sparse.hstack([m[inner][:, S] for m in (p0, p1)], format="csc"),
                       np.stack([m[S][:, S].toarray() for m in (p0, p1, p2)])))
    return blocks


def eigvalsh_counts(solver, phases, sigma) -> tuple:
    """Reference for `CharacterSolver._counts`: one eigvalsh per phase.

    Returns (the negative pivots of the solver's A_II(sigma), each
    phase's number of negative eigenvalues of its seam Schur complement
    S(w)); a phase's count below sigma is their sum.  Every S(w) is
    counted by eigvalsh, whether or not it factors.
    """
    negative, _, _, _, (fixed, cross, cross_h) = solver._interior(sigma, keep_z=False)
    w = np.array([_character(phase) for phase in phases], dtype=complex)[:, None, None]
    schur = fixed + w * cross + np.conj(w) * cross_h
    return negative, np.count_nonzero(np.linalg.eigvalsh(schur) < 0, axis=1)


def dense_character_values(solver, phase, count=None) -> np.ndarray:
    """The `count` smallest eigenvalues of one character pencil, dense, ascending.

    All of them by default.  The reference for a CharacterSolver's
    inertia counts: `dense_oracle` shares no factorization with them,
    only the assembly of the pencil.
    """
    K, B = solver._pencil(phase)
    return dense_oracle(SparsePencil(stiffness=K, mass=B), count=count or solver.dof).values


def read_hypmesh(path):
    """Reference HYPMESH reader for files `write_hypmesh` wrote: (surface, curves).

    It reads the faces, lengths, gluing and `CURVE` sides, and checks
    nothing beyond what `TriangulatedSurface` and `curve_from_sides` do.
    """
    lines = [line.split() for line in Path(path).read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    F = int(lines[1][1])
    faces = [[int(v) for v in line[:3]] for line in lines[2:2 + F]]
    lengths = [[float(x) for x in line[3:]] for line in lines[2:2 + F]]
    glue = np.empty((F, 3, 2), dtype=np.int64)
    at = 2 + F + 3 * F // 2
    for f1, s1, f2, s2 in (map(int, line) for line in lines[2 + F:at]):
        glue[f1, s1], glue[f2, s2] = (f2, s2), (f1, s1)
    surface = TriangulatedSurface(faces, lengths, glue)
    curves = {}
    while at < len(lines):
        _, name, count = lines[at]
        sides = [(int(f), int(s)) for f, s in lines[at + 1:at + 1 + int(count)]]
        curves[name] = curve_from_sides(surface, sides)
        at += 1 + int(count)
    return surface, curves


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


# -- hyperboloid model: points on x0^2 - x1^2 - x2^2 = 1, coordinates last ---

def minkowski_dot(p, q):
    """Minkowski inner product with signature (+, -, -), vectorized."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return p[..., 0] * q[..., 0] - p[..., 1] * q[..., 1] - p[..., 2] * q[..., 2]


def hyp_distance(p, q):
    """Geodesic distance 2 asinh(|p - q| / 2), |.| the Minkowski norm.

    The chord form stays accurate for nearby points, where arccosh<p, q>
    would cancel.
    """
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(-minkowski_dot(d, d), 0.0)))


def geodesic_point(p, u, t):
    """Point at arc length t along the unit-speed geodesic from p with tangent u."""
    return math.cosh(t) * np.asarray(p, dtype=float) + math.sinh(t) * np.asarray(u, dtype=float)


def geodesic_direction(p, q):
    """Unit tangent at p pointing along the geodesic toward q (hyperboloid model)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w = q - minkowski_dot(p, q)[..., None] * p
    nrm2 = -minkowski_dot(w, w)
    if np.any(nrm2 <= 0):
        raise GeometryError("cannot take direction between coincident points")
    return w / np.sqrt(nrm2)[..., None]


def right_angled_hexagon(sides):
    """Corners of the right-angled hexagon with the given sides, by a frame walk.

    The frame's columns are a point, a unit tangent and the normal.  Each
    side boosts the frame along its tangent by the side length and turns
    the tangent by an exact quarter.  Returns (corners, final frame):
    corner k starts side k, and the walk closes when the final frame is
    the identity.
    """
    frame = np.eye(3)
    corners = np.empty((6, 3))
    for k, S in enumerate(sides):
        corners[k] = frame[:, 0]
        c, h = math.cosh(S), math.sinh(S)
        frame = frame @ np.array([[c, 0.0, -h], [h, 0.0, -c], [0.0, 1.0, 0.0]])
    return corners, frame
