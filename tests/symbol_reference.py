"""Reference symbol by adaptive quadrature, independent of the Gauss-Jacobi rule.

`nlac.kernel` computes m_eta with one Gauss-Jacobi rule; the tests compare
it against `multiplier` here, which integrates the mollifier `rho1` one
frequency at a time with `scipy.integrate.quad`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from nlac.kernel import (_QUAD_RTOL, SPHERE_AREA, KernelError, MollifierSpec,
                         QuadratureError, _one_minus_kernel_shape, bump)


def rho1(spec: MollifierSpec, u):
    """The normalized mollifier C |u|^beta bump(u)."""
    u = np.asarray(u, dtype=np.float64)
    return spec.normalization * np.abs(u) ** spec.beta * bump(u, spec.bump_radius)


def multiplier(spec: MollifierSpec, eta: float, k_abs: float) -> float:
    """Multiplier m_eta at radial frequency k_abs, by adaptive radial quadrature.

    m = int_0^{eta r0} rho_eta(r) r^{d-3} |S^{d-1}| (1 - avg cos)(k_abs r) dr;
    the 1-cos factor cancels the r^{-2} singularity of the kernel.
    """
    if eta <= 0.0:
        raise KernelError(f"eta must be positive, got {eta}")
    if k_abs < 0.0:
        raise KernelError(f"k_abs must be nonnegative, got {k_abs}")
    if k_abs == 0.0:
        return 0.0
    d = spec.dim
    area = SPHERE_AREA[d]
    r_max = eta * spec.bump_radius
    scale = eta ** (-d)

    def integrand(r: float) -> float:
        rho = scale * float(rho1(spec, r / eta))
        return rho * r ** (d - 3) * area * _one_minus_kernel_shape(d, k_abs * r)

    # at least one subinterval per radian of k_abs r, and never fewer than 200
    val, err = quad(integrand, 0.0, r_max, epsabs=0.0, epsrel=_QUAD_RTOL / 10,
                    limit=max(200, int(k_abs * r_max)))
    if val < 0.0 or (val > 0.0 and err > _QUAD_RTOL * val):
        raise QuadratureError(
            f"multiplier quadrature at eta={eta}, k={k_abs}: value {val}, "
            f"achieved tolerance {err / val if val else math.inf:.3e}"
        )
    return val
