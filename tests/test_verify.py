import math
import re

import numpy as np
import pytest
import scipy.linalg

from nlac.grid import Field, l2_norm, make_grid, sobolev_norm
from nlac.kernel import MollifierSpec, local_table, symbol_table
from nlac.ops import nonlocal_energy
from nlac.potential import f_eval, quartic_potential
from nlac.solver import SolverConfig
from nlac.geometry import InterfaceSpec, approximate_solution
from nlac.verify import (EigenEstimate, McfReport, RateReport, VerifyError,
                         band_limited_field, compare_nonlocal_local,
                         consistency_passed, consistency_study, ehrling_check,
                         fit_rate, floor_verdict, lattice_mode_frequencies,
                         lattice_modes, mcf_convergence, mcf_passed,
                         minimal_ehrling_constant, spectral_floor, _pcg)

from symbol_reference import multiplier


@pytest.fixture(scope="module")
def quartic():
    return quartic_potential()


@pytest.fixture(scope="module")
def spec2():
    return MollifierSpec(dim=2)


def test_fit_rate_exact_quadratic():
    report = fit_rate([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])
    assert report.slope == pytest.approx(2.0)
    assert report.r_squared == pytest.approx(1.0)


def test_fit_rate_noisy_slope_one():
    rng = np.random.default_rng(0)
    params = np.logspace(-3, 0, 12)
    errors = 3.0 * params * np.exp(0.01 * rng.standard_normal(12))
    report = fit_rate(list(zip(params, errors)))
    assert report.slope == pytest.approx(1.0, abs=0.02)
    assert report.r_squared > 0.999


def test_fit_rate_rejects():
    with pytest.raises(VerifyError):
        fit_rate([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(VerifyError):
        fit_rate([(1.0, 1.0), (2.0, 0.0), (3.0, 1.0)])
    # a repeated parameter is one point: no rate, not a degenerate fit
    with pytest.raises(VerifyError, match="3 distinct parameters for a rate fit, got 1"):
        fit_rate([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0), (0.5, 4.0)])
    with pytest.raises(VerifyError, match="got 2"):
        fit_rate([(1.0, 1.0), (1.0, 1.5), (2.0, 2.0)])


def test_band_limited_field(spec2):
    g = make_grid(2, 32)
    rng = np.random.default_rng(1)
    u = band_limited_field(g, 8, rng)
    ksq = g.k_squared()
    assert np.max(np.abs(u.coeffs[ksq > 64])) < 1e-9 * np.max(np.abs(u.coeffs))
    assert u.sup_norm() == pytest.approx(1.0)


def test_consistency_single_mode_closed_form(spec2):
    # residual over H^3 norm for one pure mode has an exact expression
    g = make_grid(2, 16)
    x, y = g.coordinates()
    u = Field(g, np.cos(2 * x + y))
    eta = 0.25
    table = symbol_table(spec2, eta, g)
    from nlac.ops import consistency_residual
    got = consistency_residual(u, table) / sobolev_norm(u, 3)
    m = multiplier(spec2, eta, math.sqrt(5.0))
    # the (2pi)^{-1} reflects the L2-vs-Bessel normalization mismatch
    assert got == pytest.approx(abs(m - 5.0) * 6.0 ** -1.5 / (2 * math.pi), rel=1e-9)


def test_consistency_study_shape(spec2):
    g = make_grid(2, 32)
    rng = np.random.default_rng(2)
    fields = [band_limited_field(g, 8, rng) for _ in range(3)]
    report = consistency_study(spec2, g, [0.5, 0.25, 0.125, 0.0625], fields)
    assert len(report.pairs) == 4
    assert report.pairs[0][0] < report.pairs[-1][0]
    errs = [e for _, e in report.pairs]
    assert all(a < b for a, b in zip(errs, errs[1:]))
    assert "max_k" in report.extras and "k_stability" in report.extras
    assert report.extras["num_fields"] == 3


def test_consistency_study_fixed_band_is_second_order(spec2):
    # on a fixed band |k| <= 8 with eta*8 <= 1/2 the residual follows
    # c_2 eta^2 |k|^4, not the rate one of the operator norm
    g = make_grid(2, 32)
    rng = np.random.default_rng(3)
    fields = [band_limited_field(g, 8, rng) for _ in range(5)]
    report = consistency_study(spec2, g, [2.0 ** -j for j in range(4, 8)], fields)
    assert 1.8 <= report.slope <= 2.2


def test_lattice_modes():
    g = make_grid(2, 8)
    ks = lattice_mode_frequencies(g)
    assert ks == [(1, 0), (1, 1), (2, 0), (2, 2), (3, 0), (4, 0), (3, 3), (4, 4)]
    k = np.fft.fftfreq(8, d=1.0 / 8)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    for k, u in zip(ks, lattice_modes(g)):
        # cos(k.x) lives on +-k, taken modulo N (the Nyquist label folds)
        support = np.zeros(g.shape, dtype=bool)
        for sign in (1, -1):
            support |= ((kx - sign * k[0]) % 8 == 0) & ((ky - sign * k[1]) % 8 == 0)
        assert np.array_equal(np.abs(u.coeffs) > 1e-9, support)
    assert len(lattice_mode_frequencies(make_grid(3, 8))) == 8


def test_consistency_lattice_modes_rate_one(spec2):
    # the H^3 -> L2 norm peaks at |k| = z*/eta; on 32^2 the diagonal reaches
    # 16 sqrt(2), so z*/eta stays on the lattice for eta >= 0.2
    g = make_grid(2, 32)
    report = consistency_study(spec2, g, [0.5, 0.4, 0.3, 0.25], lattice_modes(g))
    assert consistency_passed(report)
    # its constant is max_z (z^2 - m_1(z))/z^3, divided by the (2pi)^{d/2}
    # between the H^3 and the physical L2 normalizations
    peak = max((z * z - multiplier(spec2, 1.0, z)) / z ** 3
               for z in np.linspace(3.0, 6.0, 61))
    assert report.extras["max_k"] == pytest.approx(peak / (2 * math.pi), rel=0.02)


def test_consistency_study_rejects(spec2):
    g = make_grid(2, 16)
    with pytest.raises(VerifyError):
        consistency_study(spec2, g, [0.5, 0.25], [])
    const = [Field(g, np.ones(g.shape))]
    with pytest.raises(VerifyError):
        consistency_study(spec2, g, [0.5, 0.25, 0.125, 0.0625], const)


def test_ehrling_constant_field_closed_form(spec2):
    # constant u: energy term drops, minimal C = (2pi)^{-d}/R^2
    g = make_grid(2, 16)
    table = symbol_table(spec2, 0.5, g)
    u = Field(g, np.full(g.shape, 3.0))
    for r_value in (1.0, 2.0):
        c = minimal_ehrling_constant(u, table, r_value)
        assert c == pytest.approx((2 * math.pi) ** -2 / r_value ** 2, rel=1e-10)


def test_ehrling_single_mode_closed_form(spec2):
    g = make_grid(2, 16)
    eta, r_value = 0.5, 2.0
    table = symbol_table(spec2, eta, g)
    x, _ = g.coordinates()
    u = Field(g, np.cos(x))
    m = multiplier(spec2, eta, 1.0)
    # two modes of size 2pi^2: lhs = 2 pi^2, rhs terms from the definitions
    lhs = l2_norm(u) ** 2
    rhs = (0.5 * (2 * math.pi) ** -2 * 2 * m * (2 * math.pi ** 2) ** 2 / r_value ** 2
           + r_value ** 2 * 0.5 * 2 * (2 * math.pi ** 2) ** 2)
    assert minimal_ehrling_constant(u, table, r_value) == pytest.approx(lhs / rhs, rel=1e-10)


def test_ehrling_check_no_violations(spec2):
    g = make_grid(2, 32)
    report = ehrling_check(spec2, g, [1.0, 2.0], trials=10, seed=5)
    assert report.violations == 0
    assert report.fitted_c > 0
    assert set(report.per_r) == {1.0, 2.0}


def test_ehrling_check_rejects_small_r_before_any_table(spec2, monkeypatch):
    # every R is checked before the first table is built and its trials run
    calls = []
    monkeypatch.setattr("nlac.verify.symbol_table", lambda *args: calls.append(args))
    with pytest.raises(VerifyError, match="R values must be >= 1, got 0.5"):
        ehrling_check(spec2, make_grid(2, 16), [1, 2, 4, 0.5], trials=3, seed=0)
    assert calls == []


def test_spectral_floor_constants(quartic):
    g = make_grid(2, 32)
    eps = 0.2
    ones = Field(g, np.ones(g.shape))
    est = spectral_floor(ones, eps, quartic, tol=1e-9)
    assert est.converged
    assert est.value == pytest.approx(2.0 / eps ** 2, rel=1e-6)
    zeros = Field(g, np.zeros(g.shape))
    est = spectral_floor(zeros, eps, quartic, tol=1e-9)
    assert est.converged
    assert est.value == pytest.approx(-1.0 / eps ** 2, rel=1e-6)
    # a constant field starts from the constant vector, its exact eigenvector
    assert est.iterations == 1


def test_spectral_floor_interface(quartic):
    g = make_grid(2, 64)
    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    u = approximate_solution(g, spec, 1.0, 0.1, quartic)
    est = spectral_floor(u, 0.1, quartic, tol=1e-6)
    assert est.converged
    # bottom of the spectrum stays order one, far above the naive -1/eps^2
    assert -2.0 < est.value < 1.0
    # the interface-mode start begins near the bottom: a few outer iterations
    assert est.iterations <= 8
    assert 0.0 < est.residual < 1e-3 and est.inner_iterations >= est.iterations


def test_spectral_floor_one_transform_pair_per_inner_iteration(quartic, monkeypatch):
    # the start vector needs no transform and its quotient one inverse, each
    # inner PCG step makes only its preconditioner's pair, and each outer one
    # the Rayleigh quotient's
    g = make_grid(2, 64)
    u = approximate_solution(g, InterfaceSpec(radius0=1.0, delta0=0.8), 1.0, 0.1, quartic)
    calls = []

    def irfftn(*args, _inner=np.fft.irfftn, **kw):
        calls.append(None)
        return _inner(*args, **kw)

    monkeypatch.setattr(np.fft, "irfftn", irfftn)
    est = spectral_floor(u, 0.1, quartic, tol=1e-6)
    assert est.converged and (est.iterations, est.inner_iterations) == (4, 70)
    assert len(calls) == est.inner_iterations + est.iterations + 1 == 75


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_pcg_recurrence_meets_the_true_residual(quartic, dim, n):
    # _pcg carries M p by recurrence; the residual of the explicit
    # two-transform operator must still meet its tolerance
    g = make_grid(dim, n)
    eps, tol = 0.125, 1e-8
    center = (0.3, -0.17, 0.11)[:dim]
    u = approximate_solution(g, InterfaceSpec(radius0=1.0, delta0=1.0, center=center),
                             1.0, eps, quartic)
    ksq = local_table(g).values
    diag = f_eval(quartic, u.values, 2) / eps ** 2
    shift = spectral_floor(u, eps, quartic).value - 0.5
    c0 = max(1.0, float(np.mean(diag)) - shift)
    b = np.random.default_rng(7).standard_normal(g.shape)
    x, ok, steps = _pcg(g, ksq + c0, diag - (shift + c0), b, tol, max_iter=500)
    assert ok and steps < 500
    residual = b - (g.irfftn(ksq * g.rfftn(x)) + (diag - shift) * x)
    assert np.linalg.norm(residual) <= 10 * tol * np.linalg.norm(b)


def _dense_floor(u, eps, potential):
    """Bottom eigenvalue of spectral_floor's discrete operator, column by column."""
    g = u.grid
    ksq = g.half_spectrum(g.k_squared())
    diag = f_eval(potential, u.values, 2) / eps ** 2
    a = np.empty((g.num_points, g.num_points))
    e = np.zeros(g.shape)
    for j in range(g.num_points):
        e.flat[j] = 1.0
        a[:, j] = (g.irfftn(ksq * g.rfftn(e)) + diag * e).ravel()
        e.flat[j] = 0.0
    return scipy.linalg.eigh(a, eigvals_only=True, subset_by_index=[0, 0],
                             overwrite_a=True, check_finite=False)[0]


@pytest.mark.parametrize("dim,n,center", [
    (2, 32, ()),                   # on a node, eps/h = 0.64
    (2, 32, (0.3, -0.17)),         # off the nodes
    (3, 16, (0.3, -0.17, 0.11)),   # off the nodes
    (2, 32, None),                 # a constant field
])
def test_spectral_floor_matches_dense_eigh(quartic, dim, n, center):
    g = make_grid(dim, n)
    eps = 0.125
    if center is None:
        u = Field(g, np.full(g.shape, 0.3))
    else:
        spec = InterfaceSpec(radius0=1.0, delta0=1.0, center=center)
        u = approximate_solution(g, spec, 1.0, eps, quartic)
    est = spectral_floor(u, eps, quartic, tol=1e-10)
    assert est.converged and est.residual < 1e-4
    assert est.value == pytest.approx(_dense_floor(u, eps, quartic), rel=1e-8)


@pytest.mark.parametrize("tol", [0.0, -1.0, 1e-17, math.nan])
def test_spectral_floor_rejects_tol_below_rounding(quartic, tol):
    # tol bounds the change of the Rayleigh quotient, not the residual; below
    # 1e-14 only two bit-equal quotients meet it
    g = make_grid(2, 16)
    zeros = Field(g, np.zeros(g.shape))
    with pytest.raises(VerifyError, match=re.escape(f"tol must be at least 1e-14, got {tol}")):
        spectral_floor(zeros, 0.2, quartic, tol=tol)
    assert spectral_floor(zeros, 0.2, quartic, tol=1e-14).converged


def _estimate(value, converged=True):
    return EigenEstimate(value=value, converged=converged, iterations=3,
                         residual=1e-9, inner_iterations=40)


@pytest.mark.parametrize("estimates,passed", [
    ({0.1: _estimate(-0.25), 0.05: _estimate(-0.29)}, True),
    ({0.05: _estimate(-0.3), 0.1: _estimate(-0.25)}, True),  # the floor itself
    ({0.1: _estimate(-0.25), 0.05: _estimate(-0.31)}, False),
    ({0.1: _estimate(-0.25), 0.05: _estimate(-0.26, converged=False)}, False),
    ({0.1: _estimate(-0.25, converged=False)}, False),
], ids=["passes", "at_floor", "below_floor", "unconverged", "coarse_unconverged"])
def test_floor_verdict(estimates, passed):
    # the floor is -1.2 |value at the largest eps|, whatever the order given
    assert floor_verdict(estimates) == (-1.2 * 0.25, passed)


def _mcf_report(field_errors, slope=None, radius_errors=None):
    # a rate fitted elsewhere: slope is given, not derived from field_errors
    rate = None if slope is None else RateReport(pairs=(), slope=slope, intercept=0.0,
                                                 r_squared=1.0)
    if radius_errors is None:
        radius_errors = {eps: 0.001 for eps in field_errors}
    return McfReport(radius_errors=radius_errors, radius_curves={},
                     field_errors=field_errors, field_rate=rate)


_ERRORS = {0.08: 0.03, 0.04: 0.01, 0.06: 0.02}
_RADIUS = {0.04: 0.004, 0.06: 0.006, 0.08: 0.011}


@pytest.mark.parametrize("report,radius_tol,passed", [
    (_mcf_report(_ERRORS, 1.5), None, True),
    (_mcf_report({0.04: 0.02, 0.06: 0.02, 0.08: 0.03}, 1.5), None, False),
    (_mcf_report({0.04: 0.03, 0.06: 0.02, 0.08: 0.01}, 1.5), None, False),
    (_mcf_report(_ERRORS, 0.99), None, False),
    (_mcf_report(_ERRORS, 1.0), None, True),
    (_mcf_report(_ERRORS, 1.5, _RADIUS), 0.01, False),
    (_mcf_report(_ERRORS, 1.5, _RADIUS), 0.011, True),
    (_mcf_report({0.05: 0.5}), None, True),
    (_mcf_report({0.05: 0.5}, radius_errors={0.05: 0.02}), 0.01, False),
], ids=["passes", "equal_errors", "increasing_errors", "slope_below_1", "slope_1",
        "radius_above_tol", "radius_at_tol", "single_eps", "single_eps_radius"])
def test_mcf_passed(report, radius_tol, passed):
    assert mcf_passed(report, radius_tol) is passed


def test_compare_nonlocal_local_small(quartic, spec2):
    g = make_grid(2, 64)
    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    initial = approximate_solution(g, spec, 1.0, 0.1, quartic)
    base = SolverConfig(grid=g, epsilon=0.1, dt=1e-3, t_end=0.02,
                        potential=quartic, diagnostic_stride=5)
    etas = [1e-4, 5e-5, 2.5e-5, 1.25e-5]
    report = compare_nonlocal_local(base, spec2, initial, etas)
    errs = dict(report.pairs)
    assert all(e > 0 for e in errs.values())
    # larger eta, larger gap
    assert errs[1e-4] > errs[1.25e-5]


def test_compare_requires_local_base(quartic, spec2):
    g = make_grid(2, 32)
    table = symbol_table(spec2, 0.1, g)
    base = SolverConfig(grid=g, epsilon=0.2, dt=1e-3, t_end=0.01,
                        potential=quartic, table=table)
    with pytest.raises(VerifyError):
        compare_nonlocal_local(base, spec2, Field(g, np.zeros(g.shape)), [1, 2, 3, 4])


def test_mcf_convergence_guards(quartic):
    g = make_grid(2, 64)
    spec = InterfaceSpec(radius0=1.0)
    with pytest.raises(VerifyError):
        mcf_convergence(spec, [0.01], g, quartic)  # unresolved
    with pytest.raises(VerifyError):
        mcf_convergence(spec, [0.3], g, quartic, t_end=0.4)  # past 0.6 collapse


def test_mcf_convergence_single_local(quartic):
    g = make_grid(2, 128)
    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    report = mcf_convergence(spec, [0.08], g, quartic, t_end=0.1,
                             dts=[1e-4], diagnostic_stride=200)
    assert report.radius_errors[0.08] < 0.06
    assert report.field_errors[0.08] > 0.0
    assert report.field_rate is None
    times = [t for t, _, _ in report.radius_curves[0.08]]
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.1)


def test_mcf_convergence_rejects_dts_length_mismatch(quartic):
    g = make_grid(2, 128)
    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    with pytest.raises(VerifyError, match="dts"):
        mcf_convergence(spec, [0.1, 0.08], g, quartic, dts=[1e-4])


def test_mcf_convergence_rejects_repeated_epsilons(quartic):
    # a repeat would run both pairs and keep one entry per epsilon
    g = make_grid(2, 128)
    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    with pytest.raises(VerifyError, match="epsilons must be distinct"):
        mcf_convergence(spec, [0.1, 0.1], g, quartic, t_end=0.004,
                        dts=[1e-4, 4e-4], diagnostic_stride=1)


def test_mcf_convergence_pairs_dts_with_their_epsilons(quartic):
    # an unsorted manifest: each dt must follow its own epsilon when sorted
    g = make_grid(2, 128)
    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    report = mcf_convergence(spec, [0.1, 0.08], g, quartic, t_end=0.004,
                             dts=[2e-3, 1e-3], diagnostic_stride=1)
    times = {eps: [t for t, _, _ in curve] for eps, curve in report.radius_curves.items()}
    assert times[0.1] == pytest.approx([0.0, 2e-3, 4e-3])
    assert times[0.08] == pytest.approx([0.0, 1e-3, 2e-3, 3e-3, 4e-3])
