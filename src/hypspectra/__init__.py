"""Triangulated hyperbolic surfaces, cyclic covers, and certified small eigenvalues."""

__version__ = "0.1.0"

from .bound import (BoundError, BoundReport, CollarData, bound_report,
                    build_test_functions, collar_data, collar_width,
                    compute_h_general, lift_distances, minimax_certificate,
                    rayleigh)
from .cover import CoverError, CoverSurface, cyclic_cover, verify_deck_symmetry
from .eigen import (EigensolverError, SpectrumResult, dense_oracle, residuals,
                    solve_smallest)
from .fem import SparsePencil, assemble, element_mass, element_stiffness, refine
from .surface import (CurveError, FenchelNielsenSpec, MeshCurve, MeshError,
                      TriangulatedSurface, build_surface, curve_from_vertex_cycle,
                      cut_along, read_hypmesh, write_hypmesh)

__all__ = [
    "BoundError", "BoundReport", "CollarData", "CoverError", "CoverSurface",
    "CurveError", "EigensolverError", "FenchelNielsenSpec", "MeshCurve",
    "MeshError", "SparsePencil", "SpectrumResult", "TriangulatedSurface",
    "__version__", "assemble", "bound_report", "build_surface",
    "build_test_functions", "collar_data", "collar_width", "compute_h_general",
    "curve_from_vertex_cycle", "cut_along", "cyclic_cover", "dense_oracle",
    "element_mass", "element_stiffness", "lift_distances",
    "minimax_certificate", "rayleigh",
    "read_hypmesh", "refine", "residuals", "solve_smallest",
    "verify_deck_symmetry", "write_hypmesh",
]
