"""Periodic grids on [0, 2pi)^d and the discrete Fourier transform.

Conventions: u_hat(k) = integral of e^{-i k.x} u(x) dx, approximated by
u_hat(k) = (2pi/N)^d * sum_j u(x_j) e^{-i k.x_j}.  The frequency lattice
uses integer components in (-N/2, N/2], i.e. the Nyquist mode carries the
label +N/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class TorusGrid:
    """Uniform discretization of the d-torus with N points per axis."""

    dim: int
    points_per_axis: int

    @property
    def n(self) -> int:
        return self.points_per_axis

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def num_points(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis_frequencies(self) -> np.ndarray:
        """Integer frequencies along one axis, Nyquist labelled +N/2."""
        n = self.points_per_axis
        k = np.fft.fftfreq(n, d=1.0 / n)
        k[n // 2] = n // 2
        return k

    def frequency_grids(self) -> tuple:
        k = self.axis_frequencies()
        return np.meshgrid(*([k] * self.dim), indexing="ij")

    def k_squared(self) -> np.ndarray:
        return _k_squared(self.dim, self.points_per_axis)

    def half_spectrum(self, full: np.ndarray) -> np.ndarray:
        """The part of a full-lattice array that `np.fft.rfftn` keeps."""
        return full[..., : self.points_per_axis // 2 + 1]

    def irfftn(self, half: np.ndarray) -> np.ndarray:
        """Inverse of `np.fft.rfftn` on this grid."""
        return np.fft.irfftn(half, s=self.shape, axes=tuple(range(self.dim)))

    def coordinates(self) -> tuple:
        x = np.arange(self.points_per_axis) * self.spacing
        return np.meshgrid(*([x] * self.dim), indexing="ij")


@lru_cache(maxsize=32)
def _k_squared(dim: int, n: int) -> np.ndarray:
    grid = TorusGrid(dim, n)
    ksq = sum(k * k for k in grid.frequency_grids())
    ksq.setflags(write=False)
    return ksq


def make_grid(dim: int, points_per_axis: int) -> TorusGrid:
    if dim not in (1, 2, 3):
        raise GridError(f"dim must be 1, 2 or 3, got {dim}")
    n = points_per_axis
    if n < 4 or (n & (n - 1)) != 0:
        raise GridError(f"points_per_axis must be a power of two >= 4, got {n}")
    return TorusGrid(dim, n)


class Field:
    """Real scalar function on a TorusGrid, with lazily cached coefficients."""

    __slots__ = ("grid", "values", "_coeffs")

    def __init__(self, grid: TorusGrid, values: np.ndarray, coeffs=None):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise GridError(f"values shape {values.shape} does not match grid {grid.shape}")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=np.complex128).copy()
            coeffs.setflags(write=False)
        self._coeffs = coeffs

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = forward_transform(self)
            c.setflags(write=False)
            self._coeffs = c
        return self._coeffs

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def forward_transform(field: Field) -> np.ndarray:
    """Discrete Fourier coefficients with the integral normalization."""
    return np.fft.fftn(field.values) * field.grid.cell_volume


def inverse_transform(coeffs: np.ndarray, grid: TorusGrid) -> Field:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != grid.shape:
        raise GridError(f"coefficient shape {coeffs.shape} does not match grid {grid.shape}")
    values = np.real(np.fft.ifftn(coeffs)) / grid.cell_volume
    return Field(grid, values, coeffs=coeffs)


def sobolev_norm(field: Field, s: float) -> float:
    """Bessel-potential norm (sum_k (1+|k|^2)^s |u_hat(k)|^2)^{1/2}.

    Note H^0 differs from the true L2 norm by a factor (2pi)^{d/2}.
    """
    ksq = field.grid.k_squared()
    weight = (1.0 + ksq) ** s
    return float(np.sqrt(np.sum(weight * np.abs(field.coeffs) ** 2)))


def l2_norm(field: Field) -> float:
    """Physical L2 norm: (sum_j u(x_j)^2 (2pi/N)^d)^{1/2}."""
    return float(np.sqrt(np.sum(field.values ** 2) * field.grid.cell_volume))
