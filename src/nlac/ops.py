"""Quadratic forms of the operators: a `SymbolTable`'s half-spectrum multiplier
summed against `Field.power`."""

from __future__ import annotations

import math

from .grid import Field, GridError, spectral_sum
from .kernel import SymbolTable, local_table


def _check_grids(field: Field, table: SymbolTable) -> None:
    if field.grid != table.grid:
        raise GridError("field and symbol table live on different grids")


def nonlocal_energy(field: Field, table: SymbolTable) -> float:
    """Quadratic energy (1/2)(2pi)^{-d} sum_k m_eta(k)|u_hat(k)|^2.

    Equals (1/2) <L u, u> in L2, and one quarter of the symmetrized double
    integral of J_eta |u(x)-u(y)|^2.
    """
    _check_grids(field, table)
    pref = 0.5 * (2.0 * math.pi) ** (-field.grid.dim)
    return pref * spectral_sum(field, table.values)


def consistency_residual(field: Field, table: SymbolTable) -> float:
    """L2 norm of (L_eta + Laplacian) applied to the field, evaluated spectrally."""
    _check_grids(field, table)
    diff = table.values - local_table(field.grid).values
    return math.sqrt((2.0 * math.pi) ** (-field.grid.dim) * spectral_sum(field, diff ** 2))

