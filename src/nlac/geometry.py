"""Circle and sphere interfaces on the torus: distance fields, the blended
profile ansatz, exact curvature-flow radii, and the radius a field's phase
volume gives.

Interfaces are centered circles (2D) or spheres (3D) whose tubular
neighbourhood stays inside one fundamental domain, so the Euclidean distance
to the center (minimal image) gives the exact signed distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid
from .potential import PotentialSpec, c_theta, optimal_profile


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class InterfaceSpec:
    radius0: float
    center: tuple = ()
    delta0: float | None = None

    def __post_init__(self):
        if not (0.0 < self.radius0 < math.pi):
            raise GeometryError(f"radius0 must lie in (0, pi), got {self.radius0}")
        d0 = self.delta0
        if d0 is None:
            # capped so the 2*delta0 tube always fits inside the domain
            d0 = min(0.6 * min(self.radius0, math.pi - self.radius0),
                     0.45 * (math.pi - self.radius0))
            object.__setattr__(self, "delta0", d0)
        if d0 <= 0.0:
            raise GeometryError("delta0 must be positive")
        # the 2*delta0 tube must fit inside one fundamental domain
        if self.radius0 + 2.0 * d0 >= math.pi:
            raise GeometryError(
                f"tube radius0 + 2*delta0 = {self.radius0 + 2.0 * d0:.4g} reaches the domain boundary pi")
        for c in self.center:
            if not (-math.pi < c < math.pi):
                raise GeometryError(f"center component {c} outside (-pi, pi)")


def _center_array(spec: InterfaceSpec, dim: int) -> np.ndarray:
    if not spec.center:
        return np.zeros(dim)
    if len(spec.center) != dim:
        raise GeometryError(f"center has {len(spec.center)} components, expected {dim}")
    return np.asarray(spec.center, dtype=np.float64)


def signed_distance(grid: TorusGrid, spec: InterfaceSpec, radius: float) -> np.ndarray:
    """r = |x - center| - radius on the grid nodes, positive outside; minimal periodic image."""
    x = np.arange(grid.points_per_axis) * grid.spacing
    squares = 0.0
    for axis, c in enumerate(_center_array(spec, grid.dim)):
        delta = (x - c + math.pi) % (2.0 * math.pi) - math.pi
        squares = squares + (delta ** 2).reshape((-1,) + (1,) * (grid.dim - 1 - axis))
    return np.sqrt(squares) - radius


def _blend(s):
    """Quintic smoothstep: 1 on s <= 1, 0 on s >= 2, C^2 monotone between."""
    s = np.abs(np.asarray(s, dtype=np.float64))
    t = np.clip(2.0 - s, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def approximate_solution(grid: TorusGrid, spec: InterfaceSpec, radius: float,
                         epsilon: float, potential: PotentialSpec) -> Field:
    """Blended ansatz zeta(|r|/delta0) theta0(r/eps) + (1 - zeta) sign(r).

    Exactly +-1 outside the 2*delta0 tube; requires eps <= delta0/8 so the
    profile has decayed before the blend takes over.
    """
    if epsilon > spec.delta0 / 8.0:
        raise GeometryError(
            f"epsilon {epsilon} too large for blend width delta0 {spec.delta0} (need eps <= delta0/8)")
    r = signed_distance(grid, spec, radius)
    zeta = _blend(r / spec.delta0)
    core = optimal_profile(potential, r / epsilon)
    values = zeta * core + (1.0 - zeta) * np.sign(r)
    return Field(grid, values)


def mcf_radius(spec: InterfaceSpec, t: float, dim: int) -> float:
    """Exact shrinking radius R(t) = sqrt(R0^2 - 2(dim-1)t)."""
    arg = spec.radius0 ** 2 - 2.0 * (dim - 1) * t
    if arg <= 0.0:
        raise GeometryError(f"t={t} at or past collapse time {spec.radius0 ** 2 / (2.0 * (dim - 1))}")
    return math.sqrt(arg)


def volume_radius(field: Field, epsilon: float, potential: PotentialSpec) -> float:
    """Radius of the circle or sphere whose profile holds the phase volume
    V = int (1 - c)/2 of `field`.

    For an odd profile V = |B_R| + |S^(d-1)| (d-1) R^(d-2) c_theta eps^2,
    so R = sqrt(V/pi - 2 c_theta eps^2) in 2D and, in 3D, the one real root
    of the increasing cubic (4/3) pi R^3 + 8 pi c_theta eps^2 R = V.  Needs
    no centre; fails unless R lies in (0, pi).
    """
    grid = field.grid
    volume = 0.5 * float(np.sum(1.0 - field.values)) * grid.cell_volume
    tube = c_theta(potential) * epsilon ** 2
    if grid.dim == 2:
        radius = math.sqrt(max(volume / math.pi - 2.0 * tube, 0.0))
    else:
        # R^3 + p R = q: Cardano's R = u - p/(3u), written without cancellation
        p, q = 6.0 * tube, 0.75 * volume / math.pi
        u2 = (0.5 * q + math.sqrt(0.25 * q * q + p ** 3 / 27.0)) ** (2.0 / 3.0)
        radius = q * u2 / (u2 * u2 + p * u2 / 3.0 + p * p / 9.0)
    if not 0.0 < radius < math.pi:
        raise GeometryError(f"phase volume {volume:.6g} gives radius {radius:.6g}, "
                            f"outside (0, pi)")
    return radius
