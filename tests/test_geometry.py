import math

import numpy as np
import pytest

from nlac.geometry import (GeometryError, InterfaceSpec, _blend, approximate_solution,
                           mcf_radius, signed_distance, volume_radius)
from nlac.grid import Field, make_grid
from nlac.potential import optimal_profile, quartic_potential


@pytest.fixture(scope="module")
def quartic():
    return quartic_potential()


def test_interface_defaults():
    spec = InterfaceSpec(radius0=1.0)
    assert spec.delta0 == pytest.approx(0.6)
    spec = InterfaceSpec(radius0=2.5)
    assert spec.delta0 == pytest.approx(0.45 * (math.pi - 2.5))


def test_interface_rejects_bad_tube():
    with pytest.raises(GeometryError):
        InterfaceSpec(radius0=1.0, delta0=1.2)  # tube reaches the boundary
    with pytest.raises(GeometryError):
        InterfaceSpec(radius0=3.5)
    with pytest.raises(GeometryError):
        InterfaceSpec(radius0=1.0, delta0=-0.1)


def test_signed_distance():
    g = make_grid(2, 128)
    h = g.spacing
    spec = InterfaceSpec(radius0=1.0)
    r = signed_distance(g, spec, 0.8)
    assert r.shape == g.shape
    assert r[0, 0] == pytest.approx(-0.8)
    assert r[16, 0] == pytest.approx(16 * h - 0.8, abs=1e-14)
    assert r[16, 12] == pytest.approx(20 * h - 0.8, abs=1e-14)
    # periodic image: a node near 2pi lies close to the centered circle
    assert r[-16, 0] == pytest.approx(16 * h - 0.8, abs=1e-12)
    assert r[-1, -1] == pytest.approx(math.sqrt(2) * h - 0.8, abs=1e-12)


def _stacked_signed_distance(grid, center, radius):
    """The reference: |x - center| - radius over stacked (N^d, d) coordinates."""
    coords = np.stack(grid.coordinates(), axis=-1)
    delta = coords - (np.asarray(center, dtype=np.float64) if center else np.zeros(grid.dim))
    delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
    return np.sqrt(np.sum(delta ** 2, axis=-1)) - radius


@pytest.mark.parametrize("dim,n,eps", [(2, 128, 0.05), (3, 32, 0.07)])
@pytest.mark.parametrize("centre", ["on-node", "off-node", "default"])
def test_grid_distance_matches_stacked_coordinates(quartic, dim, n, eps, centre):
    g = make_grid(dim, n)
    h = g.spacing
    center = {"on-node": (3 * h, -5 * h, 7 * h)[:dim],
              "off-node": (0.3, -1.234, 2.9)[:dim], "default": ()}[centre]
    spec = InterfaceSpec(radius0=1.0, center=center)
    ref = _stacked_signed_distance(g, center, 0.9)
    assert np.array_equal(signed_distance(g, spec, 0.9), ref)
    # the node next to 2pi on axis 0 takes its distance from the periodic image
    last = (-1,) + (0,) * (dim - 1)
    unwrapped = np.linalg.norm(np.eye(dim)[0] * (n - 1) * h - (center or 0.0)) - 0.9
    assert ref[last] < unwrapped
    zeta = _blend(ref / spec.delta0)
    ansatz = zeta * optimal_profile(quartic, ref / eps) + (1.0 - zeta) * np.sign(ref)
    assert np.array_equal(approximate_solution(g, spec, 0.9, eps, quartic).values, ansatz)


def test_approximate_solution_values(quartic):
    g = make_grid(2, 128)
    spec = InterfaceSpec(radius0=1.0)
    eps = 0.05
    u = approximate_solution(g, spec, 1.0, eps, quartic)
    assert np.max(np.abs(u.values)) <= 1.0
    r = signed_distance(g, spec, 1.0)
    outside = np.abs(r) >= 2.0 * spec.delta0
    assert np.array_equal(u.values[outside], np.sign(r)[outside])
    # pure profile inside the unblended core
    core = np.abs(r) <= spec.delta0
    assert np.max(np.abs(u.values[core] - np.tanh(r[core] / (eps * math.sqrt(2))))) < 1e-12


def test_approximate_solution_blend_tail(quartic):
    g = make_grid(2, 256)
    spec = InterfaceSpec(radius0=1.0)
    eps = 0.05
    u = approximate_solution(g, spec, 1.0, eps, quartic)
    r = signed_distance(g, spec, 1.0)
    band = (np.abs(r) >= spec.delta0) & (np.abs(r) <= 2.0 * spec.delta0)
    dev = np.abs(u.values[band] - np.tanh(r[band] / (eps * math.sqrt(2))))
    assert np.max(dev) <= 4.0 * math.exp(-math.sqrt(2) * spec.delta0 / eps)


def test_approximate_solution_epsilon_guard(quartic):
    g = make_grid(2, 64)
    spec = InterfaceSpec(radius0=1.0)
    with pytest.raises(GeometryError):
        approximate_solution(g, spec, 1.0, 0.2, quartic)


def test_mcf_radius():
    spec = InterfaceSpec(radius0=1.0)
    assert mcf_radius(spec, 0.0, 2) == 1.0
    assert mcf_radius(spec, 0.25, 2) == pytest.approx(math.sqrt(0.5))
    with pytest.raises(GeometryError):
        mcf_radius(spec, 0.5, 2)
    # 3d sphere shrinks twice as fast
    assert mcf_radius(spec, 0.1, 3) == pytest.approx(math.sqrt(1 - 0.4))


def test_mcf_radius_ode_residual():
    spec = InterfaceSpec(radius0=1.0)
    h = 1e-6
    for dim in (2, 3):
        for t in (0.05, 0.1, 0.2):
            rp = (mcf_radius(spec, t + h, dim) - mcf_radius(spec, t - h, dim)) / (2 * h)
            assert abs(rp + (dim - 1) / mcf_radius(spec, t, dim)) < 1e-6


# A field's radius is extracted from its phase volume (`volume_radius`).  The
# ansatz is the profile the volume correction assumes, so its radius comes
# back up to rounding and the blend's e^(-sqrt(2) delta0/eps).
@pytest.mark.parametrize("radius0", [0.5, 0.8, 1.2])
@pytest.mark.parametrize("eps", [0.03, 0.05])
def test_extract_radius_round_trip(radius0, eps, quartic):
    g = make_grid(2, 128)
    # explicit delta0 keeps the blend wide enough for eps = 0.05 at every radius
    spec = InterfaceSpec(radius0=radius0, delta0=0.45)
    u = approximate_solution(g, spec, radius0, eps, quartic)
    assert abs(volume_radius(u, eps, quartic) - radius0) <= 1e-4


@pytest.mark.parametrize("dim,n,eps", [(2, 128, 0.05), (3, 64, 0.06)])
@pytest.mark.parametrize("center", [(0.3, -1.234, 2.9), (0.5, 0.5, -0.5)])
def test_volume_radius_off_node_centre(quartic, dim, n, eps, center):
    g = make_grid(dim, n)
    spec = InterfaceSpec(radius0=0.8, center=center[:dim])
    u = approximate_solution(g, spec, 0.8, eps, quartic)
    assert abs(volume_radius(u, eps, quartic) - 0.8) <= 1e-4


def test_extract_radius_no_interface(quartic):
    for g in (make_grid(2, 64), make_grid(3, 16)):
        with pytest.raises(GeometryError, match=r"gives radius 0, outside \(0, pi\)$"):
            volume_radius(Field(g, np.ones(g.shape)), 0.05, quartic)


@pytest.mark.parametrize("dim,n,eps", [(2, 128, 0.05), (3, 64, 0.06)])
def test_volume_radius_rejects_sign_flipped_field(quartic, dim, n, eps):
    # the flipped ball's phase volume is the complement's: its radius passes pi
    g = make_grid(dim, n)
    spec = InterfaceSpec(radius0=0.8)
    u = approximate_solution(g, spec, 0.8, eps, quartic)
    with pytest.raises(GeometryError, match=r"outside \(0, pi\)"):
        volume_radius(Field(g, -u.values), eps, quartic)


def test_extract_radius_3d(quartic):
    g = make_grid(3, 64)
    spec = InterfaceSpec(radius0=0.8)
    u = approximate_solution(g, spec, 0.8, 0.06, quartic)
    assert abs(volume_radius(u, 0.06, quartic) - 0.8) <= 1e-4
