"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line on the real stdout (bypassing
capture) before asserting, so the suite's verdict survives in the log even
for passing tests.
"""

import json
import math

import numpy as np
import pytest

from nlac.cli import main as cli_main
from nlac.geometry import InterfaceSpec, approximate_solution
from nlac.grid import Field, make_grid
from nlac.io import read_snapshot, write_snapshot
from nlac.kernel import MollifierSpec, radial_multiplier
from nlac.potential import PotentialSpec, f_eval, optimal_profile, quartic_potential
from nlac.solver import SolverConfig, dt_max, run
from nlac.verify import (compare_nonlocal_local, consistency_passed,
                         consistency_study, ehrling_check, floor_verdict,
                         gap_passed, lattice_mode_frequencies, lattice_modes,
                         mcf_convergence, mcf_passed, spectral_floor)


@pytest.fixture
def verdict(capfd):
    def _verdict(num: int, ok: bool, detail: str):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


def test_criterion_01_consistency_rate(verdict):
    # operator consistency: max over single lattice modes of
    # residual/||u||_{H^3} against eta, slope near 1.  The H^3 -> L2 norm is
    # attained near |k| = z*/eta (z* ~ 4.44 in 2D); these etas put that peak
    # on the lattice, whose diagonal reaches 64 sqrt(2) on 128^2.
    g = make_grid(2, 128)
    spec = MollifierSpec(dim=2)
    etas = [2.0 ** -j for j in range(1, 5)]
    report = consistency_study(spec, g, etas, lattice_modes(g))
    modes = lattice_mode_frequencies(g)
    peaks = [math.hypot(*modes[i]) for i in report.extras["argmax"]]
    # a maximiser at the family's largest mode means the sup is clipped.  That
    # mode, the diagonal (64, 64), is the family's last and its only one of
    # largest |k|, so `interior` is consistency_passed's max(argmax) < num_fields - 1
    interior = all(peak < math.hypot(*modes[-1]) for peak in peaks)
    ok = consistency_passed(report)
    verdict(1, ok, f"slope={report.slope:.3f} (target [0.9,1.1]), "
                   f"K stability={report.extras['k_stability']:.4f} (target <=0.10), "
                   f"K={report.extras['max_k']:.4f}, peak eta|k|="
                   f"{[round(eta * p, 2) for eta, p in zip(sorted(etas), peaks)]} "
                   f"interior={interior}")


def test_criterion_02_symbol_limit(verdict):
    # the shipped symbol path approaches |k|^2 at small eta on low
    # frequencies, both dims
    q = np.arange(1, 65, dtype=np.float64)
    worst = 0.0
    for dim in (2, 3):
        m = radial_multiplier(MollifierSpec(dim=dim), 1e-3, np.sqrt(q))
        worst = max(worst, float(np.max(np.abs(m / q - 1.0))))
    ok = worst <= 0.05
    verdict(2, ok, f"max deviation over |k|<=8, dims 2 and 3: {worst:.2e} (target <=0.05)")


def test_criterion_03_ehrling(verdict):
    g = make_grid(2, 128)
    spec = MollifierSpec(dim=2)
    reports = [ehrling_check(spec, g, [1.0, 2.0, 4.0, 8.0], trials=100, seed=s)
               for s in (11, 12)]
    violations = sum(r.violations for r in reports)
    c1, c2 = reports[0].fitted_c, reports[1].fitted_c
    drift = abs(c1 - c2) / max(c1, c2)
    ok = violations == 0 and drift <= 0.20
    verdict(3, ok, f"violations={violations} (target 0), fitted C={c1:.4f}, "
                   f"seed drift={drift:.3f} (target <=0.20)")


def test_criterion_04_energy_and_maximum_principle(verdict):
    # shrinking circle, explicit nonlinearity without stabilizer: dt = dt_max/2
    g = make_grid(2, 256)
    pot = quartic_potential()
    eps = 0.05
    dt = dt_max(0.0, eps, pot) / 2.0
    config = SolverConfig(grid=g, epsilon=eps, dt=dt, t_end=2000 * dt,
                          potential=pot, stabilizer=0.0, diagnostic_stride=1)
    spec = InterfaceSpec(radius0=1.0)
    initial = approximate_solution(g, spec, 1.0, eps, pot)
    record = run(config, initial)
    e = np.array(record.energy)
    increase = np.max(np.diff(e) - 1e-10 * (1.0 + np.abs(e[:-1])))
    sup = max(record.sup_norm)
    ok = increase <= 0.0 and sup <= 1.0 + 1e-6
    verdict(4, ok, f"worst energy increase margin={increase:.2e} (target <=0), "
                   f"sup norm={sup:.9f} (target <=1+1e-6)")


def test_criterion_05_optimal_profile(verdict):
    pot = quartic_potential()
    rho = np.linspace(-10.0, 10.0, 4001)
    tanh_err = float(np.max(np.abs(optimal_profile(pot, rho)
                                   - np.tanh(rho / math.sqrt(2)))))
    sextic = PotentialSpec(kind="custom",
                           coefficients=(0.25, 0.0, -0.375, 0.0, 0.0, 0.0, 0.125))
    pts = np.linspace(-8.0, 8.0, 1000)
    h = 1e-4
    second = (optimal_profile(sextic, pts + h) - 2 * optimal_profile(sextic, pts)
              + optimal_profile(sextic, pts - h)) / h ** 2
    residual = float(np.max(np.abs(-second + f_eval(sextic, optimal_profile(sextic, pts), 1))))
    ok = tanh_err <= 1e-8 and residual <= 1e-6
    verdict(5, ok, f"tanh gap={tanh_err:.2e} (target <=1e-8), "
                   f"custom well ODE residual={residual:.2e} (target <=1e-6)")


def test_criterion_06_spectral_floor(verdict):
    pot = quartic_potential()
    g = make_grid(2, 64)
    eps0 = 0.1
    rel_errs = []
    for value, expect in ((1.0, 2.0 / eps0 ** 2), (0.0, -1.0 / eps0 ** 2)):
        est = spectral_floor(Field(g, np.full(g.shape, value)), eps0, pot, tol=1e-9)
        rel_errs.append(abs(est.value - expect) / abs(expect))
    const_ok = max(rel_errs) <= 1e-6

    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    estimates = {}
    for eps, n in ((0.1, 128), (0.05, 256), (0.025, 512)):
        gg = make_grid(2, n)
        u = approximate_solution(gg, spec, 1.0, eps, pot)
        estimates[eps] = spectral_floor(u, eps, pot, tol=1e-8)
        assert estimates[eps].iterations <= 8  # the interface-mode start begins near the bottom
    bound, uniform_ok = floor_verdict(estimates)
    ok = const_ok and uniform_ok
    verdict(6, ok, f"constant rel err={max(rel_errs):.2e} (target <=1e-6), "
                   f"floors={ {e: round(est.value, 4) for e, est in estimates.items()} } "
                   f"all >= {bound:.4f}")


def test_criterion_07_nonlocal_local_gap(verdict):
    g = make_grid(2, 128)
    pot = quartic_potential()
    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    eps = 0.1
    initial = approximate_solution(g, spec, 1.0, eps, pot)
    base = SolverConfig(grid=g, epsilon=eps, dt=2e-4, t_end=0.2,
                        potential=pot, diagnostic_stride=50)
    eps4 = eps ** 4
    report = compare_nonlocal_local(base, MollifierSpec(dim=2), initial,
                                    [eps4, eps4 / 2, eps4 / 4, eps4 / 8])
    # eta <= eps^4 keeps eta|k| below 0.01 up to Nyquist, where
    # m_eta(k) = |k|^2 - c_d eta^2 |k|^4 + ... makes the gap O(eta^2)
    # (tests/test_kernel.py checks c_d); that implies the paper's gap <= C eta
    ok = gap_passed(report)
    c_first_order = max(gap / eta for eta, gap in report.pairs)
    verdict(7, ok, f"slope={report.slope:.3f} (target [1.8,2.2]), "
                   f"r^2={report.r_squared:.5f} (target >=0.99), "
                   f"so the paper's bound gap <= C*eta holds with "
                   f"C={c_first_order:.3e}")


def test_criterion_08_mean_curvature_flow(verdict):
    g = make_grid(2, 256)
    pot = quartic_potential()
    spec = InterfaceSpec(radius0=1.0)
    kspec = MollifierSpec(dim=2)
    local = mcf_convergence(spec, [0.04], "zero", g, pot, kernel_spec=kspec,
                            t_end=0.3, dts=[1.6e-5], diagnostic_stride=250)
    nonlocal_ = mcf_convergence(spec, [0.04], "pow4", g, pot, kernel_spec=kspec,
                                t_end=0.3, dts=[1.6e-5], diagnostic_stride=250)
    e_local = local.radius_errors[0.04]
    e_nonlocal = nonlocal_.radius_errors[0.04]
    ok = e_local <= 0.02 and e_nonlocal <= 1.5 * e_local
    verdict(8, ok, f"local radius error={e_local:.4f} (target <=0.02), "
                   f"nonlocal/local ratio={e_nonlocal / e_local:.3f} (target <=1.5)")


def test_criterion_09_sharp_interface_sweep(verdict):
    g = make_grid(2, 256)
    pot = quartic_potential()
    spec = InterfaceSpec(radius0=1.0, delta0=0.8)
    kspec = MollifierSpec(dim=2)
    report = mcf_convergence(spec, [0.08, 0.06, 0.04], "pow4", g, pot,
                             kernel_spec=kspec, t_end=0.2, diagnostic_stride=250)
    eps_sorted = sorted(report.field_errors)
    errs = [report.field_errors[e] for e in eps_sorted]
    decreasing = all(a < b for a, b in zip(errs, errs[1:]))
    slope = report.field_rate.slope
    ok = mcf_passed(report)
    verdict(9, ok, f"field errors {dict(zip(eps_sorted, [round(e, 5) for e in errs]))} "
                   f"strictly decreasing={decreasing}, slope={slope:.3f} (target >=1)")


def test_criterion_10_determinism_and_formats(verdict, tmp_path):
    manifest = {
        "study": "ehrling",
        "grid": {"dim": 2, "points_per_axis": 64},
        "params": {"r_values": [1.0, 2.0], "trials": 20},
        "seed": 42,
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_main(["ehrling", "--manifest", str(mpath), "--out", str(out)])
        assert code == 0
        blobs.append((out / "ehrling.json").read_bytes())
    reports_identical = blobs[0] == blobs[1]

    g = make_grid(2, 32)
    rng = np.random.default_rng(7)
    field = Field(g, rng.standard_normal(g.shape))
    spath = tmp_path / "f.nlac"
    write_snapshot(field, spath)
    round_trip = np.array_equal(read_snapshot(spath).values, field.values)
    ok = reports_identical and round_trip
    verdict(10, ok, f"identical reports={reports_identical}, "
                    f"snapshot round trip bit-exact={round_trip}")
