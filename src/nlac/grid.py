"""Periodic grids on [0, 2pi)^d and the discrete Fourier transform.

Conventions: u_hat(k) = integral of e^{-i k.x} u(x) dx, approximated by
u_hat(k) = (2pi/N)^d * sum_j u(x_j) e^{-i k.x_j}.  The frequency lattice
uses integer components in numpy's fftfreq order; the program reads it
only through |k|^2, where the sign of the Nyquist component +-N/2 cannot
show.  A field keeps only rfftn(u), the half spectrum with last
component 0..N/2: u is real, so u_hat(-k) = conj(u_hat(k)).  The transform
pair is `TorusGrid.rfftn`/`TorusGrid.irfftn`, through `numpy.fft`: the same
pocketfft as scipy.fft, without loading scipy for a study that needs only
transforms.  A field also caches its power, the Hermitian-weighted |u_hat|^2
on the half spectrum, so the quadratic forms of one field (energy, Sobolev
norms, consistency residual) square its spectrum once between them.
"""

from __future__ import annotations

import math
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

    def k_squared(self) -> np.ndarray:
        return _k_squared(self.dim, self.points_per_axis)

    def half_spectrum(self, full: np.ndarray) -> np.ndarray:
        """The part of a full-lattice array that `TorusGrid.rfftn` keeps."""
        return full[..., : self.points_per_axis // 2 + 1]

    # np.fft.rfftn/irfftn are looked up per call, so a wrapper installed on
    # numpy.fft, like perfbench's FFT counter, sees every transform
    def rfftn(self, values: np.ndarray) -> np.ndarray:
        """Unnormalized real half spectrum of values on this grid, a fresh array."""
        half = self.shape[:-1] + (self.points_per_axis // 2 + 1,)
        # with `out`, numpy runs the complex passes in place: one temporary fewer
        return np.fft.rfftn(values, axes=tuple(range(self.dim)),
                            out=np.empty(half, np.complex128))

    def irfftn(self, half: np.ndarray) -> np.ndarray:
        """Inverse of `TorusGrid.rfftn` on this grid."""
        return np.fft.irfftn(half, s=self.shape, axes=tuple(range(self.dim)))

    def coordinates(self) -> tuple:
        x = np.arange(self.points_per_axis) * self.spacing
        return np.meshgrid(*([x] * self.dim), indexing="ij")


def _frozen(array, dtype) -> np.ndarray:
    """array as a read-only ndarray of dtype, frozen in place: no copy where
    array already is one, and then the caller's array becomes read-only."""
    out = np.asarray(array, dtype=dtype)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _k_squared(dim: int, n: int) -> np.ndarray:
    k2 = np.fft.fftfreq(n, d=1.0 / n) ** 2
    return _frozen(sum(k2.reshape((-1,) + (1,) * a) for a in range(dim)), np.float64)


def make_grid(dim: int, points_per_axis: int) -> TorusGrid:
    if dim not in (1, 2, 3):
        raise GridError(f"dim must be 1, 2 or 3, got {dim}")
    n = points_per_axis
    if n < 4 or (n & (n - 1)) != 0:
        raise GridError(f"points_per_axis must be a power of two >= 4, got {n}")
    return TorusGrid(dim, n)


class Field:
    """Real scalar function on a TorusGrid, with its real half spectrum and
    power cached.  It takes `values` and `spectrum` without a copy and freezes
    them in place: nothing may write to them afterwards, through any view."""

    __slots__ = ("grid", "values", "_spectrum", "_power")

    def __init__(self, grid: TorusGrid, values: np.ndarray, spectrum=None):
        values = np.asarray(values, dtype=np.float64)  # frozen once both shapes pass
        if values.shape != grid.shape:
            raise GridError(f"values shape {values.shape} does not match grid {grid.shape}")
        if spectrum is not None and np.shape(spectrum) != grid.half_spectrum(values).shape:
            raise GridError(f"spectrum shape {np.shape(spectrum)} is not rfftn's on {grid.shape}")
        self.grid = grid
        self.values = _frozen(values, np.float64)
        self._spectrum = None if spectrum is None else _frozen(spectrum, np.complex128)
        self._power = None

    @property
    def spectrum(self) -> np.ndarray:
        """rfftn(values): the unnormalized real half spectrum, last axis 0..N/2."""
        if self._spectrum is None:
            self._spectrum = self.grid.rfftn(self.values)
            self._spectrum.setflags(write=False)
        return self._spectrum

    @property
    def power(self) -> np.ndarray:
        """|spectrum|^2 with Hermitian weights, so that summing it over the half
        spectrum sums |rfftn(u)(k)|^2 over the full lattice."""
        if self._power is None:
            spec = self.spectrum  # in place: one temporary, not three
            self._power = np.square(spec.real)
            self._power += np.square(spec.imag)
            self._power *= _hermitian_weights(self.grid.points_per_axis)
            self._power.setflags(write=False)
        return self._power

    @property
    def coeffs(self) -> np.ndarray:
        """Full-lattice u_hat, recomputed per call; the diagnostics read `power`."""
        return np.fft.fftn(self.values) * self.grid.cell_volume

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@lru_cache(maxsize=32)
def _hermitian_weights(n: int) -> np.ndarray:
    """2 on the last-axis planes whose mirror -k rfftn drops, 1 on the
    self-conjugate planes 0 and N/2."""
    return _frozen(np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0], np.float64)


@lru_cache(maxsize=64)
def _bessel_weights(dim: int, n: int, s: float) -> np.ndarray:
    """(1 + |k|^2)^s on the half spectrum."""
    return _frozen((1.0 + TorusGrid(dim, n).half_spectrum(_k_squared(dim, n))) ** s, np.float64)


def spectral_sum(field: Field, symbol: np.ndarray) -> float:
    """sum_k symbol(k) |u_hat(k)|^2 over the full lattice, for a symbol even in k
    given on the half spectrum.

    u is real, so |u_hat(-k)| = |u_hat(k)| and the sum runs over the half
    spectrum with Hermitian weights: the field's cached `Field.power`.
    """
    return float(np.sum(symbol * field.power)) * field.grid.cell_volume ** 2


def sobolev_norm(field: Field, s: float) -> float:
    """Bessel-potential norm (sum_k (1+|k|^2)^s |u_hat(k)|^2)^{1/2}.

    Note H^0 differs from the true L2 norm by a factor (2pi)^{d/2}.
    """
    grid = field.grid
    return math.sqrt(spectral_sum(field, _bessel_weights(grid.dim, grid.points_per_axis, s)))


def l2_norm(field: Field) -> float:
    """Physical L2 norm: (sum_j u(x_j)^2 (2pi/N)^d)^{1/2}."""
    return float(np.sqrt(np.sum(field.values ** 2) * field.grid.cell_volume))
