"""Circle and sphere interfaces on the torus: distance fields, the blended
profile ansatz, exact curvature-flow radii, and radius extraction.

Interfaces are centered circles (2D) or spheres (3D) whose tubular
neighbourhood stays inside one fundamental domain, so the Euclidean distance
to the center (minimal image) gives the exact signed distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid
from .potential import PotentialSpec, optimal_profile


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


def _ray_directions(dim: int) -> np.ndarray:
    if dim == 2:
        angles = np.arange(360) * (2.0 * math.pi / 360.0)
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    # 3D: the 26 nonzero lattice offsets in {-1,0,1}^3, normalized
    dirs = [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
            if (i, j, k) != (0, 0, 0)]
    dirs = np.asarray(dirs, dtype=np.float64)
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def _interp_periodic(field: Field, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation with periodic wrapping; points shape (..., dim)."""
    grid = field.grid
    n = grid.points_per_axis
    u = points / grid.spacing
    i0 = np.floor(u).astype(np.int64)
    frac = u - i0
    dim = grid.dim
    out = np.zeros(points.shape[:-1])
    for corner in range(1 << dim):
        idx = []
        w = np.ones_like(out)
        for ax in range(dim):
            bit = (corner >> ax) & 1
            idx.append((i0[..., ax] + bit) % n)
            w = w * (frac[..., ax] if bit else (1.0 - frac[..., ax]))
        out += w * field.values[tuple(idx)]
    return out


def extract_radius(field: Field, spec: InterfaceSpec) -> float:
    """Average zero-crossing distance along rays from the interface center.

    Samples each ray at grid resolution and locates the sign change by linear
    interpolation; fails naming the first ray with no sign change.
    """
    grid = field.grid
    center = _center_array(spec, grid.dim)
    dirs = _ray_directions(grid.dim)
    h = grid.spacing
    n_samples = int(math.floor((math.pi - h) / h))
    radii_samples = (np.arange(n_samples) + 0.5) * h

    points = center + radii_samples[None, :, None] * dirs[:, None, :]
    vals = _interp_periodic(field, points % (2.0 * math.pi))

    flips = np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0
    crossed = flips.any(axis=1)
    if not crossed.all():
        i = int(np.argmin(crossed))
        raise GeometryError(f"no sign change along ray {i} (direction {tuple(dirs[i].tolist())})")
    # linear interpolation of each ray's first zero between consecutive samples
    j = flips.argmax(axis=1)
    rays = np.arange(len(dirs))
    before, after = vals[rays, j], vals[rays, j + 1]
    crossings = radii_samples[j] + before / (before - after) * h
    return float(np.mean(crossings))
