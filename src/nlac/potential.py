"""Double-well potentials and the heteroclinic interface profile.

The default well is f(c) = (1-c^2)^2/4 with minima at +-1.  Custom wells are
even polynomials supplied by coefficients; they must vanish to second order at
+-1, be positive in between, and rise past some R0 in [1, 8), which bounds an
invariant region [-R0, R0].  The profile theta0 solves
-theta0'' + f'(theta0) = 0 with theta0(0) = 0 and limits +-1; for the quartic
this is tanh(rho/sqrt(2)), otherwise the first-integral reduction
theta0' = sqrt(2 f(theta0)) is integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyder


class PotentialError(ValueError):
    pass


#: quartic f(c) = (1-c^2)^2/4 = c^4/4 - c^2/2 + 1/4
_QUARTIC = np.array([0.25, 0.0, -0.5, 0.0, 0.25])  # lowest degree first

_PROFILE_SATURATION = 40.0


@dataclass(frozen=True)
class PotentialSpec:
    """A double-well potential, either the default quartic or a polynomial well."""

    kind: str = "quartic"
    coefficients: tuple = ()
    r0: float = field(init=False, default=0.0)
    fpp_max: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.kind not in ("quartic", "custom"):
            raise PotentialError(f"kind must be 'quartic' or 'custom', got {self.kind!r}")
        if self.kind == "quartic":
            coeffs = _QUARTIC
        else:
            coeffs = np.asarray(self.coefficients, dtype=np.float64)
            if coeffs.size < 5:
                raise PotentialError("custom well needs a polynomial of degree >= 4")
        object.__setattr__(self, "coefficients", tuple(float(a) for a in coeffs))
        _check_well(self)
        r0, fpp_max = _derived_constants(self)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "fpp_max", fpp_max)


def quartic_potential() -> PotentialSpec:
    return PotentialSpec(kind="quartic")


def f_eval(spec: PotentialSpec, c, order: int = 0, out=None):
    """Value of f or its derivative up to fourth order, into `out` if given."""
    if order not in (0, 1, 2, 3, 4):
        raise PotentialError(f"order must be in 0..4, got {order}")
    coeffs = _derivative(spec.coefficients, order)
    x = np.asarray(c, dtype=np.float64)
    # Horner in place, in polyval's order of operations: the same bits, one array
    out = np.multiply(x, 0.0, out=out)
    out += coeffs[-1]
    for a in coeffs[-2::-1]:
        out *= x
        out += a
    return float(out) if np.isscalar(c) or np.ndim(c) == 0 else out


@lru_cache(maxsize=64)
def _derivative(coefficients: tuple, order: int) -> tuple:
    """Coefficients of the order-th derivative, lowest degree first."""
    return tuple(float(a) for a in polyder(coefficients, order))


def _check_well(spec: PotentialSpec) -> None:
    # an even well with equal-depth minima at +-1 and positivity in between, sampled
    if any(spec.coefficients[1::2]):
        raise PotentialError("custom well must be even: odd coefficients must be zero")
    tol = 1e-10
    for w in (-1.0, 1.0):
        if abs(f_eval(spec, w, 0)) > tol or abs(f_eval(spec, w, 1)) > tol:
            raise PotentialError(f"well conditions fail at c={w}: f and f' must vanish")
        if f_eval(spec, w, 2) <= 0.0:
            raise PotentialError(f"f'' must be positive at c={w}")
    c = np.linspace(-1.0, 1.0, 1001)[1:-1]
    if np.any(f_eval(spec, c, 0) <= 0.0):
        raise PotentialError("f must be positive on (-1, 1)")


def _derived_constants(spec: PotentialSpec) -> tuple:
    """(R0, max f'' on [-R0, R0]); R0 >= 1 bounds the invariant region, past
    which f' > 0.  The well is even, so f' is odd and c < 0 mirrors c > 0."""
    c = np.linspace(1.0, 8.0, 2001)
    fp = f_eval(spec, c, 1)
    if fp[-1] <= 0.0:
        raise PotentialError("f' must be positive at c=8: the well has no invariant region")
    bad = np.where(fp <= 0.0)[0]
    r0 = float(c[bad[-1]]) if bad.size else 1.0
    c = np.linspace(-r0, r0, 4001)
    fpp_max = float(np.max(f_eval(spec, c, 2)))
    return r0, fpp_max


@lru_cache(maxsize=16)
def _profile_table(spec: PotentialSpec):
    """Integrate theta' = sqrt(2 f(theta)) from theta(0)=0, returning dense output."""
    from scipy.integrate import solve_ivp  # custom wells only, off the quartic's run path

    def rhs(_rho, theta):
        val = f_eval(spec, min(max(theta[0], -1.0), 1.0), 0)
        return [math.sqrt(max(2.0 * val, 0.0))]

    sol = solve_ivp(rhs, (0.0, _PROFILE_SATURATION), [0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    if not sol.success:
        raise PotentialError(f"profile integration failed: {sol.message}")
    return sol


def optimal_profile(spec: PotentialSpec, rho):
    """Interface profile theta0(rho), odd, increasing, with limits +-1."""
    rho_arr = np.asarray(rho, dtype=np.float64)
    scalar = rho_arr.ndim == 0
    rho_arr = np.atleast_1d(rho_arr)
    if spec.kind == "quartic":
        out = np.tanh(rho_arr / math.sqrt(2.0))
    else:
        sol = _profile_table(spec)
        a = np.abs(rho_arr)
        out = np.ones_like(a)
        inside = a < _PROFILE_SATURATION
        if np.any(inside):
            out[inside] = np.clip(sol.sol(a[inside])[0], -1.0, 1.0)
        out = np.where(rho_arr < 0.0, -out, out)
        out[rho_arr == 0.0] = 0.0
    return float(out[0]) if scalar else out


@lru_cache(maxsize=16)
def c_theta(spec: PotentialSpec) -> float:
    """c_theta = int_0^inf s (1 - theta0(s)) ds, the profile's excess phase
    volume per unit curvature (pi^2/12 for the quartic): 16-point
    Gauss-Legendre on unit panels up to the saturation, where theta0 is 1."""
    x, w = np.polynomial.legendre.leggauss(16)
    s = np.arange(_PROFILE_SATURATION)[:, None] + 0.5 * (x + 1.0)
    return float(np.sum(0.5 * w * s * (1.0 - optimal_profile(spec, s))))
