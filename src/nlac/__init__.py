"""Spectral simulator and verification harness for nonlocal Allen-Cahn dynamics on the flat torus."""

__version__ = "0.1.0"

from .grid import TorusGrid, Field, make_grid, sobolev_norm, l2_norm
from .kernel import MollifierSpec, SymbolTable, symbol_table, local_table
from .potential import PotentialSpec, quartic_potential, f_eval, optimal_profile
from .ops import nonlocal_energy, consistency_residual
from .solver import SolverConfig, RunRecord, run, total_energy, dt_max
from .geometry import InterfaceSpec, signed_distance, approximate_solution, mcf_radius, volume_radius
from .verify import (RateReport, EigenEstimate, fit_rate, band_limited_field,
                     consistency_study, ehrling_check, spectral_floor,
                     compare_nonlocal_local, mcf_convergence)
from .io import StudyManifest, load_manifest, write_snapshot, read_snapshot, write_report

__all__ = [
    "TorusGrid", "Field", "make_grid", "sobolev_norm", "l2_norm",
    "MollifierSpec", "SymbolTable", "symbol_table", "local_table",
    "PotentialSpec", "quartic_potential", "f_eval", "optimal_profile",
    "nonlocal_energy", "consistency_residual",
    "SolverConfig", "RunRecord", "run", "total_energy", "dt_max",
    "InterfaceSpec", "signed_distance", "approximate_solution", "mcf_radius",
    "volume_radius",
    "RateReport", "EigenEstimate", "fit_rate", "band_limited_field",
    "consistency_study", "ehrling_check", "spectral_floor",
    "compare_nonlocal_local", "mcf_convergence",
    "StudyManifest", "load_manifest", "write_snapshot", "read_snapshot",
    "write_report",
]
