"""Triangulated hyperbolic surfaces, cyclic covers, and certified small eigenvalues."""

__version__ = "0.1.0"

from .bound import (BoundError, BoundReport, bound_report, boundary_distances,
                    collar_width, minimax_certificate, piece_ramps, ramp_quotient,
                    ramp_width, rayleigh)
from .cover import CoverError, CoverSurface, cyclic_cover
from .eigen import (CharacterSolver, CharacterSpectrum, EigensolverError, SpectrumResult,
                    dense_oracle, residuals, solve_smallest)
from .fem import SparsePencil, assemble, prolongation, refine, side_weights
from .surface import (CurveError, FenchelNielsenSpec, MeshCurve, MeshError,
                      TriangulatedSurface, build_surface, curve_from_sides,
                      cut_along, write_hypmesh)

__all__ = [
    "BoundError", "BoundReport", "CharacterSolver", "CharacterSpectrum",
    "CoverError", "CoverSurface",
    "CurveError", "EigensolverError", "FenchelNielsenSpec", "MeshCurve",
    "MeshError", "SparsePencil", "SpectrumResult", "TriangulatedSurface",
    "__version__", "assemble", "bound_report", "boundary_distances", "build_surface",
    "collar_width",
    "curve_from_sides", "cut_along", "cyclic_cover", "dense_oracle",
    "minimax_certificate", "piece_ramps", "prolongation", "ramp_quotient",
    "ramp_width", "rayleigh", "refine", "residuals", "side_weights",
    "solve_smallest", "write_hypmesh",
]
