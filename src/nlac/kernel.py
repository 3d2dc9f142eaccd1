"""Singular interaction kernels and the Fourier multiplier of the nonlocal operator.

The kernel is J_eta(x) = rho_eta(|x|)/|x|^2 with rho_eta(r) = eta^{-d} rho1(r/eta)
and rho1(r) = C |r|^beta * bump(r), a compactly supported mollifier normalized so
that its radial (d-1)-moment equals 2/C_d.  The multiplier of the operator
u -> (J*1) u - J*u is

    m_eta(k) = integral of J_eta(x) (1 - cos(k.x)) dx,

computed as a one-dimensional radial quadrature; the angular average of
cos(k.x) over the sphere of radius r is J0(|k| r) in 2D and sinc(|k| r) in 3D.

With r = eta u the radial integrand carries the weight u^(beta+d-3) exactly,
so one Gauss-Jacobi rule (Golub & Welsch 1969) on [0, r0] evaluates m_eta at
every radius in one vectorized pass, checked against the rule with twice the
nodes.  The same rule, built once per kernel, gives the moment normalization
and the kernel mass: the symbol has this one quadrature path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import TorusGrid


class KernelError(ValueError):
    pass


class QuadratureError(RuntimeError):
    """Raised when the radial quadrature cannot reach the requested tolerance."""


#: |S^{d-1}| and the directional second moment C_d = int_{S^{d-1}} sigma_1^2.
SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}
MOMENT_CONSTANT = {2: math.pi, 3: 4.0 * math.pi / 3.0}

DEFAULT_BETA = {2: 1.5, 3: 0.5}
DEFAULT_BUMP_RADIUS = math.pi / 2.0

_QUAD_RTOL = 1e-9

#: nodes of the Gauss-Jacobi rule; the self-check doubles them
_JACOBI_NODES = 100


@dataclass(frozen=True)
class MollifierSpec:
    """Parameters of the mollifier family, born normalized: beta defaults to
    DEFAULT_BETA[dim], and `normalization` is computed, never passed in."""

    dim: int
    beta: float | None = None
    bump_radius: float = DEFAULT_BUMP_RADIUS
    normalization: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise KernelError(f"dim must be 2 or 3, got {self.dim}")
        if self.beta is None:
            object.__setattr__(self, "beta", DEFAULT_BETA[self.dim])
        lo, hi = 3.0 - self.dim, 2.0
        if not (lo < self.beta < hi):
            raise KernelError(f"beta must lie in ({lo}, {hi}) for dim {self.dim}, got {self.beta}")
        if not (0.0 < self.bump_radius < math.pi):
            raise KernelError(f"bump_radius must lie in (0, pi), got {self.bump_radius}")
        object.__setattr__(self, "normalization", _normalization(self))


def bump(u, r0: float):
    """Smooth symmetric bump exp(-1/(1-(u/r0)^2)) supported on (-r0, r0)."""
    u = np.asarray(u, dtype=np.float64)
    s2 = (u / r0) ** 2
    out = np.zeros_like(s2)
    inside = s2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    return out


def _normalization(spec: MollifierSpec) -> float:
    """The constant C with int_0^inf rho1(u) u^{d-1} du = 2/C_d, by the
    symbol's Gauss-Jacobi rule with h(u) = u^2."""
    d = spec.dim
    moment = float(_checked_radial_sum(spec, lambda u: u * u, "moment")) / SPHERE_AREA[d]
    # a tiny bump_radius can take the moment below 2/(C_d * float max)
    if not moment > 2.0 / MOMENT_CONSTANT[d] / sys.float_info.max:
        raise QuadratureError(f"moment {moment:.3e} is too small to normalize")
    return 2.0 / MOMENT_CONSTANT[d] / moment


def _one_minus_kernel_shape(dim: int, z):
    """1 - (angular average of cos(k.x)), i.e. 1-J0(z) (2D) or 1-sinc(z) (3D).

    Series branch below z=0.1 avoids cancellation for small arguments.
    """
    z = np.asarray(z, dtype=np.float64)
    z2 = z * z
    small = z < 0.1
    c1, c2, c3, c4 = (4.0, 16.0, 36.0, 64.0) if dim == 2 else (6.0, 20.0, 42.0, 72.0)
    series = z2 / c1 * (1.0 - z2 / c2 * (1.0 - z2 / c3 * (1.0 - z2 / c4)))
    if small.all():  # as on an eta = eps^4 table: the direct branch would be discarded
        return series
    if dim == 2:
        from scipy.special import j0  # here only, so kernel-free studies load no scipy
        direct = 1.0 - j0(z)
    else:
        safe = np.where(small, 1.0, z)  # the series covers z = 0
        direct = 1.0 - np.sin(safe) / safe
    return np.where(small, series, direct)


@dataclass(frozen=True)
class SymbolTable:
    """Fourier multiplier of an operator, eta = 0 for -Laplacian: `values` on the half
    spectrum `TorusGrid.rfftn` keeps, `radial_values` at each distinct lattice |k|."""

    grid: TorusGrid
    eta: float
    values: np.ndarray
    radii: np.ndarray
    radial_values: np.ndarray

    def __post_init__(self):
        half = self.grid.half_spectrum(self.grid.k_squared()).shape
        if self.values.shape != half:
            raise KernelError(f"values shape {self.values.shape} is not the half spectrum {half}")
        self.values.setflags(write=False)
        self.radii.setflags(write=False)
        self.radial_values.setflags(write=False)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("k_abs,m_eta\n")
            for r, m in zip(self.radii, self.radial_values):
                fh.write(f"{r:.17g},{m:.17g}\n")


@lru_cache(maxsize=64)
def _radial_rule(dim: int, beta: float, r0: float, n: int) -> tuple:
    """Read-only nodes u_j in (0, r0) and weights w_j with sum_j w_j h(u_j) ~
    |S^{d-1}| int_0^{r0} u^beta bump(u) u^{d-3} h(u) du, i.e. rho1/C.

    Gauss-Jacobi on [-1, 1] with weight (1+x)^a, a = beta+d-3, mapped by
    u = r0 (1+x)/2; the bump folds into the weights.  Keyed on the values,
    not on a spec, whose hash changes once its normalization is set.
    """
    from scipy.special import roots_jacobi  # here only, like j0
    a = beta + dim - 3.0
    x, w = roots_jacobi(n, 0.0, a)
    u = 0.5 * r0 * (1.0 + x)
    weights = w * (0.5 * r0) ** (a + 1.0) * bump(u, r0) * SPHERE_AREA[dim]
    u.setflags(write=False)
    weights.setflags(write=False)
    return u, weights


def _checked_radial_sum(spec: MollifierSpec, integrand, what: str):
    """sum_j w_j integrand(u_j) by the rule with n and 2n nodes, without the
    normalization; returns the 2n-node sum, and raises QuadratureError where
    the two differ by more than _QUAD_RTOL relative.  Accumulates node by
    node, so temporaries stay the size of one integrand value.
    """
    sums = []
    for n in (_JACOBI_NODES, 2 * _JACOBI_NODES):
        total = 0.0
        for u_j, w_j in zip(*_radial_rule(spec.dim, spec.beta, spec.bump_radius, n)):
            total = total + w_j * integrand(u_j)
        sums.append(total)
    coarse, fine = sums
    gap, scale = np.atleast_1d(np.abs(fine - coarse)), np.atleast_1d(np.abs(fine))
    bad = gap > _QUAD_RTOL * scale
    if np.any(bad):
        worst = float(np.max(gap[bad] / scale[bad]))
        raise QuadratureError(
            f"{what}: {_JACOBI_NODES} and {2 * _JACOBI_NODES} Gauss-Jacobi nodes "
            f"differ by {worst:.3e} relative (tolerance {_QUAD_RTOL:g})")
    return fine


def radial_multiplier(spec: MollifierSpec, eta: float, k_abs) -> np.ndarray:
    """m_eta at every radial frequency in k_abs, in one Gauss-Jacobi pass.

    With r = eta u, m_eta(k) = eta^-2 |S^{d-1}| int_0^{r0} rho1(u) u^{d-3}
    (1 - avg cos)(eta |k| u) du, which is the scaling identity
    m_eta(k) = eta^-2 m_1(eta |k|).
    """
    if eta <= 0.0:
        raise KernelError(f"eta must be positive, got {eta}")
    z = eta * np.asarray(k_abs, dtype=np.float64)
    if np.any(z < 0.0):
        raise KernelError("k_abs must be nonnegative")
    d = spec.dim
    total = _checked_radial_sum(
        spec, lambda u: _one_minus_kernel_shape(d, z * u),
        f"symbol at eta={eta}, eta*|k| up to {float(np.max(z, initial=0.0)):.4g}")
    return spec.normalization * total / eta ** 2


def symbol_table(spec: MollifierSpec, eta: float, grid: TorusGrid) -> SymbolTable:
    """Evaluate m_eta at each distinct |k| of the half spectrum, which holds every lattice |k|."""
    if grid.dim != spec.dim:
        raise KernelError(f"grid dim {grid.dim} does not match spec dim {spec.dim}")
    ksq_int = np.rint(grid.half_spectrum(grid.k_squared())).astype(np.int64)
    unique_sq, inverse = np.unique(ksq_int, return_inverse=True)
    radii = np.sqrt(unique_sq.astype(np.float64))
    radial_values = radial_multiplier(spec, eta, radii)
    if radial_values[0] != 0.0 or np.any(radial_values[1:] <= 0.0):
        raise KernelError("symbol table violates positivity: m(0)=0 and m(k)>0 for k != 0")
    values = radial_values[inverse].reshape(ksq_int.shape)
    return SymbolTable(grid=grid, eta=eta, values=values, radii=radii,
                       radial_values=radial_values)


@lru_cache(maxsize=32)
def local_table(grid: TorusGrid) -> SymbolTable:
    """The local operator -Laplacian as a table, one per grid: eta = 0, m(k) = |k|^2."""
    ksq = grid.half_spectrum(grid.k_squared())
    unique_sq = np.unique(ksq)  # exact: sums of squared integers
    return SymbolTable(grid=grid, eta=0.0, values=ksq, radii=np.sqrt(unique_sq),
                       radial_values=unique_sq)


def kernel_mass(spec: MollifierSpec) -> float:
    """Total mass of J_1, i.e. its Fourier transform at zero."""
    return spec.normalization * float(_checked_radial_sum(spec, lambda u: 1.0, "kernel mass"))
