import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import nlac.kernel
from nlac.grid import make_grid
from nlac.kernel import (DEFAULT_BETA, KernelError, MollifierSpec, QuadratureError,
                         bump, kernel_mass, multiplier, radial_multiplier, rho1,
                         symbol_table)


@pytest.fixture(scope="module")
def spec2():
    return MollifierSpec(dim=2)


@pytest.fixture(scope="module")
def spec3():
    return MollifierSpec(dim=3)


def test_beta_range_enforced():
    with pytest.raises(KernelError):
        MollifierSpec(dim=2, beta=2.5)
    with pytest.raises(KernelError):
        MollifierSpec(dim=2, beta=1.0)  # must exceed 3 - dim
    with pytest.raises(KernelError):
        MollifierSpec(dim=3, beta=0.0)
    MollifierSpec(dim=3, beta=0.5)


def test_bump_support():
    r0 = math.pi / 2
    assert bump(0.0, r0) == pytest.approx(math.exp(-1.0))
    assert bump(r0, r0) == 0.0
    assert bump(2 * r0, r0) == 0.0


@pytest.mark.parametrize("dim,target", [(2, 2 / math.pi), (3, 3 / (2 * math.pi))])
def test_moment_normalization(dim, target):
    # independent quadrature of the normalized radial moment at the default beta
    spec = MollifierSpec(dim=dim)
    moment, _ = quad(lambda u: float(rho1(spec, u)) * u ** (dim - 1),
                     0.0, spec.bump_radius, epsrel=1e-12)
    assert moment == pytest.approx(target, rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_moment_normalization_over_family(dim, data):
    # independent quadrature of the normalized radial moment, over the whole
    # parameter range of the mollifier family
    beta = data.draw(st.floats(3 - dim, 2, exclude_min=True, exclude_max=True), "beta")
    r0 = data.draw(st.floats(0, math.pi, exclude_min=True, exclude_max=True), "bump_radius")
    try:
        spec = MollifierSpec(dim=dim, beta=beta, bump_radius=r0)
    except QuadratureError:
        # the moment is about r0^(beta+d)/100, past the float range only here
        assert r0 < 1e-60
        return
    moment, _ = quad(lambda u: float(rho1(spec, u)) * u ** (dim - 1),
                     0.0, spec.bump_radius, epsrel=1e-12)
    assert moment == pytest.approx({2: 2 / math.pi, 3: 3 / (2 * math.pi)}[dim], rel=1e-10)


def test_unnormalizable_bump_radius_rejected():
    # the moment underflows to a subnormal, and its reciprocal to inf
    with pytest.raises(QuadratureError):
        MollifierSpec(dim=2, beta=1.9999999, bump_radius=1e-80)


def test_radial_rule_built_once_per_kernel(monkeypatch):
    # the moment, the symbol and the mass share one rule pair per kernel
    built, roots_jacobi = [], nlac.kernel.roots_jacobi

    def counting(n, alpha, beta):
        built.append(n)
        return roots_jacobi(n, alpha, beta)

    monkeypatch.setattr(nlac.kernel, "roots_jacobi", counting)
    spec = MollifierSpec(dim=2, beta=1.2345678901)  # a beta no other test builds
    grid = make_grid(2, 8)
    symbol_table(spec, 0.5, grid)
    symbol_table(spec, 0.25, grid)
    kernel_mass(spec)
    assert sorted(built) == [100, 200]


def test_normalization_is_not_an_argument():
    with pytest.raises(TypeError):
        MollifierSpec(dim=2, beta=1.5, normalization=1.0)


def test_default_beta_and_replace_renormalize():
    spec = MollifierSpec(dim=2)
    assert spec.beta == DEFAULT_BETA[2]
    assert spec == MollifierSpec(dim=2, beta=DEFAULT_BETA[2])
    other = replace(spec, beta=1.2)
    assert other.normalization != spec.normalization
    assert other == MollifierSpec(dim=2, beta=1.2)
    with pytest.raises(KernelError, match="dim must be 2 or 3, got 1"):
        MollifierSpec(dim=1)


def test_multiplier_zero_frequency(spec2):
    assert multiplier(spec2, 0.5, 0.0) == 0.0


def test_multiplier_small_eta_limit(spec2, spec3):
    assert multiplier(spec2, 1e-3, 2.0) == pytest.approx(4.0, rel=0.05)
    assert multiplier(spec3, 1e-3, 2.0) == pytest.approx(4.0, rel=0.05)


def test_multiplier_scaling_identity(spec2, spec3):
    for spec in (spec2, spec3):
        for eta in (0.5, 0.125):
            for q in (0.7, 2.0, 5.0):
                lhs = multiplier(spec, eta, q)
                rhs = multiplier(spec, 1.0, eta * q) / eta ** 2
                assert lhs == pytest.approx(rhs, rel=1e-8)


def test_symbol_limit_monotone(spec2):
    for k in (1.0, 2.0, 4.0):
        devs = [abs(multiplier(spec2, 2.0 ** -j, k) / k ** 2 - 1.0)
                for j in range(3, 11)]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-4


@pytest.mark.parametrize("dim,expected", [(2, 0.056262), (3, 0.045009)])
def test_symbol_expansion_constant(dim, expected):
    # 1 - avg cos(z) = z^2/(2d) - z^4/(8d(d+2)) + O(z^6) under the radial
    # integral gives m_eta(k) = |k|^2 - c_d eta^2 |k|^4 + O(eta^4 |k|^6)
    # with c_d = |S^{d-1}| int rho1(u) u^{d+1} du / (8d(d+2))
    spec = MollifierSpec(dim=dim)
    moment, _ = quad(lambda u: float(rho1(spec, u)) * u ** (dim + 1),
                     0.0, spec.bump_radius, epsrel=1e-12)
    area = {2: 2 * math.pi, 3: 4 * math.pi}[dim]
    c_d = area * moment / (8 * dim * (dim + 2))
    assert c_d == pytest.approx(expected, rel=1e-5)
    for eta, k in ((0.005, 1.0), (0.001, 3.0), (0.01, 2.0)):
        measured = (k ** 2 - multiplier(spec, eta, k)) / (eta ** 2 * k ** 4)
        assert measured == pytest.approx(c_d, rel=1e-4)


def test_symbol_table_small_grid(spec2):
    g = make_grid(2, 4)
    t = symbol_table(spec2, 0.5, g)
    expected = [0.0, 1.0, math.sqrt(2), 2.0, math.sqrt(5), 2 * math.sqrt(2)]
    assert np.allclose(t.radii, expected)
    assert t.radial_values[0] == 0.0
    assert np.all(t.radial_values[1:] > 0.0)


def test_symbol_table_radial_symmetry(spec2):
    g = make_grid(2, 8)
    t = symbol_table(spec2, 0.25, g)
    # all frequencies with |k| = 1 carry bit-identical values
    vals = {t.values[1, 0], t.values[0, 1], t.values[-1, 0], t.values[0, -1]}
    assert len(vals) == 1


def test_symbol_table_eta_ordering(spec2):
    g = make_grid(2, 8)
    coarse = symbol_table(spec2, 0.5, g)
    fine = symbol_table(spec2, 0.25, g)
    ksq = g.k_squared()
    sel = (ksq > 0) & (ksq <= 16)
    dev_c = np.abs(coarse.values[sel] / ksq[sel] - 1.0)
    dev_f = np.abs(fine.values[sel] / ksq[sel] - 1.0)
    assert np.all(dev_f < dev_c)


def test_symbol_table_grid_mismatch(spec2):
    with pytest.raises(KernelError):
        symbol_table(spec2, 0.5, make_grid(3, 4))


def test_symbol_table_csv(tmp_path, spec2):
    g = make_grid(2, 4)
    t = symbol_table(spec2, 0.5, g)
    path = tmp_path / "symbol.csv"
    t.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k_abs,m_eta"
    assert len(lines) == 1 + len(t.radii)
    k0, m0 = lines[1].split(",")
    assert float(k0) == 0.0 and float(m0) == 0.0


@pytest.mark.parametrize("dim,points,sample", [(2, 64, None), (2, 256, 40), (3, 32, 40)])
@pytest.mark.parametrize("eta", [1e-3, 2.0 ** -4, 1.0])
def test_symbol_table_matches_adaptive_multiplier(dim, points, sample, eta):
    # the Gauss-Jacobi table against the adaptive quadrature, every radius of
    # 64^2 and an even sample of the others, always including the largest
    spec = MollifierSpec(dim=dim)
    table = symbol_table(spec, eta, make_grid(dim, points))
    n = len(table.radii)
    idx = range(1, n) if sample is None else np.unique(np.linspace(1, n - 1, sample).astype(int))
    for i in idx:
        expected = multiplier(spec, eta, float(table.radii[i]))
        assert table.radial_values[i] == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=50, deadline=None)
@given(dim=st.sampled_from([2, 3]), eta=st.floats(1e-6, 1.0),
       z=st.lists(st.floats(1e-4, 150.0), min_size=1, max_size=20))
def test_radial_multiplier_scaling_and_positivity(dim, eta, z):
    # m_eta(k) = eta^-2 m_1(eta |k|) and m > 0 off the origin, on the vector path
    spec = MollifierSpec(dim=dim)
    z = np.array(z)
    scaled = radial_multiplier(spec, eta, z / eta)
    assert np.all(scaled > 0.0)
    np.testing.assert_allclose(scaled, radial_multiplier(spec, 1.0, z) / eta ** 2,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_symbol_unresolved_raises(dim):
    # at eta|k| ~ 1e4 the rule cannot follow the oscillation of 1 - avg cos;
    # doubling the nodes exposes it
    spec = MollifierSpec(dim=dim)
    with pytest.raises(QuadratureError):
        radial_multiplier(spec, 1.0, [1.0, 1e4])
    with pytest.raises(QuadratureError):
        symbol_table(spec, 1e3, make_grid(dim, 16))


def test_kernel_mass_matches_adaptive(spec2, spec3):
    for spec in (spec2, spec3):
        d = spec.dim
        area = {2: 2 * math.pi, 3: 4 * math.pi}[d]
        expected, _ = quad(lambda u: float(rho1(spec, u)) * u ** (d - 3) * area,
                           0.0, spec.bump_radius, epsabs=0.0, epsrel=1e-12, limit=200)
        assert kernel_mass(spec) == pytest.approx(expected, rel=1e-10)


def test_ehrling_tail(spec2):
    # decay of the transform: Psi(64) within 5% of the limit Psi(inf)
    pref = (2 * math.pi) ** -2
    tail = pref * kernel_mass(spec2)
    assert pref * multiplier(spec2, 1.0, 64.0) == pytest.approx(tail, rel=0.05)


def test_default_betas():
    assert DEFAULT_BETA == {2: 1.5, 3: 0.5}
