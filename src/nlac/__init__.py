"""Spectral simulator and verification harness for nonlocal Allen-Cahn dynamics on the flat torus."""

__version__ = "0.1.0"

from .grid import TorusGrid, Field, make_grid, forward_transform, inverse_transform, sobolev_norm, l2_norm
from .kernel import (MollifierSpec, SymbolTable, normalize, multiplier, symbol_table,
                     local_table, ehrling_constants)
from .potential import PotentialSpec, quartic_potential, f_eval, optimal_profile
from .ops import apply_nonlocal, apply_laplacian, nonlocal_energy, consistency_residual, project
from .solver import SolverConfig, RunRecord, step, run, total_energy, dt_max
from .geometry import InterfaceSpec, signed_distance, approximate_solution, mcf_radius, extract_radius
from .verify import (RateReport, EigenEstimate, fit_rate, band_limited_field,
                     consistency_study, ehrling_check, spectral_floor,
                     compare_nonlocal_local, mcf_convergence)
from .io import StudyManifest, load_manifest, write_snapshot, read_snapshot, write_report

__all__ = [
    "TorusGrid", "Field", "make_grid", "forward_transform", "inverse_transform",
    "sobolev_norm", "l2_norm",
    "MollifierSpec", "SymbolTable", "normalize", "multiplier", "symbol_table",
    "local_table", "ehrling_constants",
    "PotentialSpec", "quartic_potential", "f_eval", "optimal_profile",
    "apply_nonlocal", "apply_laplacian", "nonlocal_energy", "consistency_residual",
    "project",
    "SolverConfig", "RunRecord", "step", "run", "total_energy", "dt_max",
    "InterfaceSpec", "signed_distance", "approximate_solution", "mcf_radius",
    "extract_radius",
    "RateReport", "EigenEstimate", "fit_rate", "band_limited_field",
    "consistency_study", "ehrling_check", "spectral_floor",
    "compare_nonlocal_local", "mcf_convergence",
    "StudyManifest", "load_manifest", "write_snapshot", "read_snapshot",
    "write_report",
]
