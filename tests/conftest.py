import numpy as np
import pytest

from hypspectra import eigen
from hypspectra.bound import bound_report, boundary_distances
from hypspectra.cover import cyclic_cover
from hypspectra.eigen import SpectrumResult, solve_smallest
from hypspectra.fem import assemble, refine
from hypspectra.surface import FenchelNielsenSpec, build_surface, cut_along

DEFAULT_CUFFS = (2.0, 2.0, 2.0)
SWEEP_N = (1, 2, 4, 8, 16)


@pytest.fixture(scope="session")
def base_r0():
    """Default base surface and its cut curve, unrefined."""
    return build_surface(FenchelNielsenSpec(cuff_lengths=DEFAULT_CUFFS))


@pytest.fixture(scope="session")
def base_levels(base_r0):
    """Base surface with the cut curve carried through refinements 0..3."""
    levels = [base_r0]
    surface, gamma = base_r0
    for _ in range(3):
        surface, (gamma,) = refine(surface, [gamma])
        levels.append((surface, gamma))
    return levels


@pytest.fixture(scope="session")
def base_spectra(base_levels):
    """Five smallest eigenpairs of the base surface at each refinement level."""
    out = []
    for surface, _ in base_levels:
        pencil = assemble(surface)
        out.append((pencil, solve_smallest(pencil, count=5, tol=1e-9, seed=0)))
    return out


@pytest.fixture(scope="session")
def small_cover(base_r0):
    """Smallest honest cover: n=2, N=1 on the unrefined base (192 dof)."""
    surface, gamma = base_r0
    return cyclic_cover(surface, gamma, n=2, N=1)


@pytest.fixture(scope="session")
def sweep_rows(base_levels):
    """Full certification pipeline at refinement 2 for each cover multiplier."""
    surface, gamma = base_levels[2]
    cut = cut_along(surface, gamma)
    cut_pencil, dist = assemble(cut), boundary_distances(cut)
    rows = {}
    for N in SWEEP_N:
        cover = cyclic_cover(surface, gamma, n=2, N=N)
        pencil = assemble(cover.surface)
        spectrum = solve_smallest(pencil, count=4, tol=1e-9, seed=0)
        rows[N] = {
            "cover": cover,
            "pencil": pencil,
            "spectrum": spectrum,
            "report": bound_report(cut, cut_pencil, spectrum, n=2, N=N, dist=dist,
                                   base_area=surface.total_area()),
        }
    return rows


@pytest.fixture(scope="session")
def on_cover():
    """Lays a piece's copy-by-copy ramp (`piece_ramps`) out on every piece of a cover.

    Piece i is the run of copies i*N .. i*N+N-1; the result has one row
    per piece, over the cover's vertices.
    """
    def lay_out(cover, vectors, copies):
        per_copy = np.repeat(vectors, copies, axis=0)
        fs = np.zeros((cover.n + 1, cover.surface.num_vertices))
        for i in range(cover.n + 1):
            fs[i, cover.copy_vertex[i * cover.N:(i + 1) * cover.N]] = per_copy
        return fs

    return lay_out


@pytest.fixture(scope="session")
def cover_r3(base_levels):
    """n=2, N=2 cover of the refinement-3 base (distance checks only)."""
    surface, gamma = base_levels[3]
    return cyclic_cover(surface, gamma, n=2, N=2)


def drop_lowest_of_complex_pencils(monkeypatch, spare: int):
    """Lanczos drops the lowest eigenvalue of every complex character pencil.

    It solves for `spare` more eigenvalues than asked before dropping one.
    """
    real = eigen._lanczos

    def lanczos(K, B, sigma, solve, count, *args):
        if not np.iscomplexobj(K.data):
            return real(K, B, sigma, solve, count, *args)
        result = real(K, B, sigma, solve, count + spare, *args)
        return SpectrumResult(result.values[1:], result.vectors[:, 1:],
                              result.residuals[1:], result.iterations, result.dof,
                              result.shift)

    monkeypatch.setattr(eigen, "_lanczos", lanczos)


@pytest.fixture
def paired_phases_miss_lowest(monkeypatch):
    """Lanczos misses the lowest eigenvalue of every complex character pencil.

    The shape of the bug that returned one copy of a double eigenvalue.
    """
    drop_lowest_of_complex_pencils(monkeypatch, spare=0)


@pytest.fixture
def paired_phases_skip_lowest(monkeypatch):
    """Lanczos returns as many eigenvalues as asked of a complex character
    pencil, but not its lowest: the next one takes its place.

    The miss only the inertia count can see.
    """
    drop_lowest_of_complex_pencils(monkeypatch, spare=1)
