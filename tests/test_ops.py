import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlac.grid import Field, GridError, make_grid, sobolev_norm
from nlac.kernel import MollifierSpec, SymbolTable, local_table, symbol_table
from nlac.ops import consistency_residual, nonlocal_energy

from symbol_reference import multiplier


@pytest.fixture(scope="module")
def setup():
    g = make_grid(2, 32)
    spec = MollifierSpec(dim=2)
    table = symbol_table(spec, 0.25, g)
    return g, spec, table


def test_nonlocal_oblique_mode():
    g2 = make_grid(2, 16)
    spec = MollifierSpec(dim=2)
    table = symbol_table(spec, 0.5, g2)
    x, y = g2.coordinates()
    m = multiplier(spec, 0.5, math.sqrt(5.0))
    # cos(2x + y) puts 2 pi^2 on each of +-(2, 1)
    assert nonlocal_energy(Field(g2, np.cos(2 * x + y)), table) == pytest.approx(
        math.pi ** 2 * m, rel=1e-9)


def test_nonlocal_linearity(setup):
    # the energy is a quadratic form: parallelogram law
    g, _, table = setup
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(g.shape), rng.standard_normal(g.shape)

    def energy(w):
        return nonlocal_energy(Field(g, w), table)

    lhs = energy(u + v) + energy(u - v)
    assert lhs == pytest.approx(2.0 * energy(u) + 2.0 * energy(v), rel=1e-12)


def test_nonlocal_self_adjoint_nonnegative(setup):
    g, _, table = setup
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert nonlocal_energy(Field(g, rng.standard_normal(g.shape)), table) > 0.0


def test_laplacian_modes(setup):
    # the local operator is the |k|^2 table: E(u) = (1/2)||grad u||^2
    g, _, _ = setup
    table = local_table(g)
    x, y = g.coordinates()
    assert nonlocal_energy(Field(g, np.cos(x)), table) == pytest.approx(math.pi ** 2)
    assert nonlocal_energy(Field(g, np.full(g.shape, 2.0)), table) == pytest.approx(0.0, abs=1e-12)
    assert nonlocal_energy(Field(g, np.sin(2 * x + y)), table) == pytest.approx(5.0 * math.pi ** 2)
    assert consistency_residual(Field(g, np.sin(2 * x + y)), table) == pytest.approx(0.0, abs=1e-12)


def test_energy_values(setup):
    g, spec, table = setup
    assert nonlocal_energy(Field(g, np.full(g.shape, 3.0)), table) == pytest.approx(0.0, abs=1e-12)
    x, _ = g.coordinates()
    e = nonlocal_energy(Field(g, np.cos(x)), table)
    m = multiplier(spec, 0.25, 1.0)
    assert e == pytest.approx(math.pi ** 2 * m, rel=1e-12)


def test_energy_dirichlet_limit():
    # E_eta -> (1/2)||grad u||^2 for band-limited u at small eta
    g = make_grid(2, 32)
    spec = MollifierSpec(dim=2)
    table = symbol_table(spec, 1e-3, g)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u = Field(g, np.real(np.fft.ifftn(np.where(g.k_squared() <= 16, coeffs, 0))))
    dirichlet = 0.5 * (2 * math.pi) ** -2 * np.sum(g.k_squared() * np.abs(u.coeffs) ** 2)
    assert nonlocal_energy(u, table) == pytest.approx(dirichlet, rel=0.02)


def test_residual_values(setup):
    g, spec, table = setup
    assert consistency_residual(Field(g, np.full(g.shape, 1.0)), table) == pytest.approx(0.0, abs=1e-12)
    x, _ = g.coordinates()
    r = consistency_residual(Field(g, np.cos(x)), table)
    m = multiplier(spec, 0.25, 1.0)
    assert r == pytest.approx(abs(m - 1.0) * math.pi * math.sqrt(2), rel=1e-10)


def test_residual_decreases_with_eta(setup):
    g, spec, _ = setup
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u = Field(g, np.real(np.fft.ifftn(np.where(g.k_squared() <= 64, coeffs, 0))))
    res = [consistency_residual(u, symbol_table(spec, eta, g))
           for eta in (0.5, 0.25, 0.125, 0.0625)]
    assert all(a > b for a, b in zip(res, res[1:]))


def test_grid_mismatch(setup):
    _, _, table = setup
    other = Field(make_grid(2, 16), np.zeros((16, 16)))
    with pytest.raises(GridError):
        nonlocal_energy(other, table)
    with pytest.raises(GridError):
        consistency_residual(other, table)


def _radial_table(grid, rng):
    """A table with random nonnegative values on the lattice radii, so even in k."""
    unique_sq, inverse = np.unique(grid.k_squared(), return_inverse=True)
    radial = rng.uniform(0.0, 2.0, unique_sq.size) * unique_sq
    values = grid.half_spectrum(radial[inverse].reshape(grid.shape))
    return SymbolTable(grid=grid, eta=0.5, values=values, radii=np.sqrt(unique_sq),
                       radial_values=radial)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), log_n=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_half_spectrum_sums_match_full_lattice(full_lattice, dim, log_n, seed):
    g = make_grid(dim, 2 ** min(log_n, 4 if dim == 3 else 5))
    rng = np.random.default_rng(seed)
    u = Field(g, rng.standard_normal(g.shape))
    table = _radial_table(g, rng)
    m = full_lattice(table)
    power = np.abs(u.coeffs) ** 2  # full complex lattice
    ksq = g.k_squared()
    pref = (2 * math.pi) ** -dim
    for s in (-1, 0, 1, 2, 3):
        full = math.sqrt(np.sum((1.0 + ksq) ** s * power))
        assert sobolev_norm(u, s) == pytest.approx(full, rel=1e-12)
    assert nonlocal_energy(u, table) == pytest.approx(
        0.5 * pref * np.sum(m * power), rel=1e-12)
    assert consistency_residual(u, table) == pytest.approx(
        math.sqrt(pref * np.sum((m - ksq) ** 2 * power)), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), log_n=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
       given_spectrum=st.booleans())
def test_quadratic_forms_are_bit_identical_to_the_weighted_power_sum(
        dim, log_n, seed, given_spectrum):
    # the cached Field.power must reproduce the explicit sum to the last bit
    g = make_grid(dim, 2 ** min(log_n, 4 if dim == 3 else 5))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(g.shape)
    u = Field(g, values, g.rfftn(values) if given_spectrum else None)
    table = _radial_table(g, rng)
    spec = g.rfftn(values)
    w = np.full(g.points_per_axis // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0

    def explicit(symbol):  # w is 1 or 2, so its place in the product is exact
        return float(np.sum(symbol * w * (spec.real ** 2 + spec.imag ** 2))) * g.cell_volume ** 2

    ksq, m = g.half_spectrum(g.k_squared()), table.values
    pref = (2 * math.pi) ** -dim
    for s in (0, 1, 2, 3):
        assert sobolev_norm(u, s) == math.sqrt(explicit((1.0 + ksq) ** s))
    assert nonlocal_energy(u, table) == 0.5 * pref * explicit(m)
    assert consistency_residual(u, table) == math.sqrt(pref * explicit((m - ksq) ** 2))
    assert u.power is u.power and not u.power.flags.writeable
