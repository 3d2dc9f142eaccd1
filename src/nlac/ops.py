"""Spectral application of the nonlocal operator, the Laplacian and projections.

All operators here are diagonal in frequency, so application is a pointwise
multiply of the coefficient array.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Field, GridError, TorusGrid, inverse_transform
from .kernel import SymbolTable


def _check_grids(field: Field, table: SymbolTable) -> None:
    if field.grid != table.grid:
        raise GridError("field and symbol table live on different grids")


def apply_nonlocal(field: Field, table: SymbolTable) -> Field:
    """Apply the operator with multiplier m_eta; annihilates constants."""
    _check_grids(field, table)
    return inverse_transform(table.values * field.coeffs, field.grid)


def apply_laplacian(field: Field) -> Field:
    return inverse_transform(-field.grid.k_squared() * field.coeffs, field.grid)


def nonlocal_energy(field: Field, table: SymbolTable) -> float:
    """Quadratic energy (1/2)(2pi)^{-d} sum_k m_eta(k)|u_hat(k)|^2.

    Equals (1/2) <L u, u> in L2, and one quarter of the symmetrized double
    integral of J_eta |u(x)-u(y)|^2.
    """
    _check_grids(field, table)
    d = field.grid.dim
    pref = 0.5 * (2.0 * math.pi) ** (-d)
    return float(pref * np.sum(table.values * np.abs(field.coeffs) ** 2))


def consistency_residual(field: Field, table: SymbolTable) -> float:
    """L2 norm of (L_eta + Laplacian) applied to the field, evaluated spectrally."""
    _check_grids(field, table)
    d = field.grid.dim
    diff = table.values - field.grid.k_squared()
    total = np.sum(diff ** 2 * np.abs(field.coeffs) ** 2)
    return float(math.sqrt((2.0 * math.pi) ** (-d) * total))


def box_mask(grid: TorusGrid, cutoff: int) -> np.ndarray:
    """True at the modes with every |k_i| <= cutoff."""
    if cutoff > grid.points_per_axis // 2:
        raise GridError(f"cutoff {cutoff} exceeds Nyquist {grid.points_per_axis // 2}")
    keep = np.ones(grid.shape, dtype=bool)
    for k in grid.frequency_grids():
        keep &= np.abs(k) <= cutoff
    return keep


def project(field: Field, cutoff: int) -> Field:
    """Truncate to modes with every |k_i| <= cutoff."""
    return inverse_transform(np.where(box_mask(field.grid, cutoff), field.coeffs, 0.0),
                             field.grid)
