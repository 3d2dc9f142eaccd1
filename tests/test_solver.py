import math

import numpy as np
import pytest

from nlac.geometry import InterfaceSpec, approximate_solution
from nlac.grid import Field, make_grid
from nlac.kernel import default_spec, local_table, symbol_table
from nlac.solver import (BlowUpError, SolverConfig, SolverError, dt_max, run,
                         step, total_energy)
from nlac.potential import f_eval, quartic_potential


@pytest.fixture(scope="module")
def quartic():
    return quartic_potential()


@pytest.fixture(scope="module")
def grid64():
    return make_grid(2, 64)


def _config(grid, pot, **kw):
    base = dict(grid=grid, epsilon=0.2, dt=1e-3, t_end=1e-2, potential=pot,
                stabilizer=2.0, diagnostic_stride=1)
    base.update(kw)
    return SolverConfig(**base)


def test_dt_max(quartic):
    assert dt_max(0.0, 0.1, quartic) == pytest.approx(0.01 / 4)
    assert dt_max(1.0, 0.1, quartic) == pytest.approx(0.01 / 2)
    assert math.isinf(dt_max(2.0, 0.1, quartic))


def test_dt_bound_enforced(grid64, quartic):
    with pytest.raises(SolverError):
        _config(grid64, quartic, stabilizer=0.0, epsilon=0.05, dt=1e-2)


def test_linear_single_mode_amplitude(grid64, quartic):
    # tiny amplitude makes the cubic term negligible, so the scheme reduces to
    # the scalar recurrence a -> a (1 + dt(s+1)/eps^2) / (1 + dt(|k|^2 + s/eps^2))
    # (the f' ~ -c linear part joins the explicit side)
    dt, s = 0.1, 2.0
    config = _config(grid64, quartic, stabilizer=s, epsilon=1.0, dt=dt)
    x, _ = grid64.coordinates()
    amp = 1e-9
    out = step(Field(grid64, amp * np.cos(x)), config)
    factor = (1.0 + dt * (s + 1.0)) / (1.0 + dt * (1.0 + s))
    assert np.max(np.abs(out.values - amp * factor * np.cos(x))) < 1e-20


def test_equilibria(grid64, quartic):
    config = _config(grid64, quartic)
    for value in (1.0, -1.0, 0.0):
        state = Field(grid64, np.full(grid64.shape, value))
        out = step(state, config)
        assert np.max(np.abs(out.values - value)) < 1e-13


def test_total_energy_values(grid64, quartic):
    config = _config(grid64, quartic, epsilon=1.0)
    ones = Field(grid64, np.ones(grid64.shape))
    assert total_energy(ones, config) == pytest.approx(0.0, abs=1e-13)
    zeros = Field(grid64, np.zeros(grid64.shape))
    assert total_energy(zeros, config) == pytest.approx(0.25 * (2 * math.pi) ** 2)


def test_total_energy_small_amplitude(grid64, quartic):
    # Taylor at 0: f(a cos x) ~ 1/4 - a^2 cos^2 x / 2; Dirichlet part a^2 pi^2
    config = _config(grid64, quartic, epsilon=1.0)
    a = 1e-4
    x, _ = grid64.coordinates()
    u = Field(grid64, a * np.cos(x))
    expected = a ** 2 * math.pi ** 2 + (0.25 * (2 * math.pi) ** 2
                                        - 0.5 * a ** 2 * 2 * math.pi ** 2)
    assert total_energy(u, config) == pytest.approx(expected, rel=1e-6)


def test_run_equilibrium_flat(grid64, quartic):
    config = _config(grid64, quartic, t_end=5e-3)
    record = run(config, Field(grid64, np.ones(grid64.shape)))
    assert record.times[0] == 0.0
    assert all(b > a for a, b in zip(record.times, record.times[1:]))
    assert max(abs(e) for e in record.energy) < 1e-12
    assert all(abs(s - 1.0) < 1e-13 for s in record.sup_norm)


@pytest.mark.parametrize("dim,points", [(2, 64), (3, 64)])
def test_run_energy_dissipation_nonlocal(quartic, dim, points):
    g = make_grid(dim, points)
    table = symbol_table(default_spec(dim), 0.1, g)
    config = _config(g, quartic, table=table, epsilon=0.3, dt=5e-3, t_end=0.1)
    spec = InterfaceSpec(radius0=1.0, delta0=1.0)
    init = approximate_solution(g, spec, 1.0, 0.12, quartic)
    record = run(config, init)
    e = np.array(record.energy)
    assert np.all(np.diff(e) <= 1e-10 * (1.0 + np.abs(e[:-1])))


@pytest.mark.parametrize("dim,points", [(2, 64), (3, 64)])
def test_run_maximum_principle(quartic, dim, points):
    g = make_grid(dim, points)
    config = _config(g, quartic, epsilon=0.3, dt=5e-3, t_end=0.1)
    spec = InterfaceSpec(radius0=1.0, delta0=1.0)
    init = approximate_solution(g, spec, 1.0, 0.12, quartic)
    record = run(config, init)
    assert max(record.sup_norm) <= quartic.r0 + 1e-6


def _reference_run(config, initial):
    """The full complex update (c_hat + dt/eps^2 (s c_hat - F f'(c))) / denom."""
    g = config.grid
    eps2, s = config.epsilon ** 2, config.stabilizer
    denom = 1.0 + config.dt * (config.table.values + s / eps2)
    cutoff = g.points_per_axis // 3
    keep = np.all([np.abs(k) <= cutoff for k in g.frequency_grids()], axis=0)
    values = initial.values
    energy = [total_energy(initial, config)]
    for _ in range(config.num_steps()):
        chat = np.fft.fftn(values)
        fphat = np.fft.fftn(f_eval(config.potential, values, 1))
        new = (chat + (config.dt / eps2) * (s * chat - fphat)) / denom
        if config.dealias:
            new = np.where(keep, new, 0.0)
        values = np.real(np.fft.ifftn(new))
        energy.append(total_energy(Field(g, values), config))
    return values, energy


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("nonlocal_", [False, True])
@pytest.mark.parametrize("dim,points", [(2, 64), (3, 16)])
def test_run_matches_full_complex_update(quartic, dim, points, nonlocal_, dealias):
    g = make_grid(dim, points)
    table = symbol_table(default_spec(dim), 0.2, g) if nonlocal_ else None
    config = _config(g, quartic, table=table, epsilon=0.3, dt=5e-3, t_end=0.1,
                     dealias=dealias)
    init = approximate_solution(g, InterfaceSpec(radius0=1.0, delta0=1.0), 1.0,
                                0.12, quartic)
    values, energy = _reference_run(config, init)
    record = run(config, init)
    assert len(record.energy) == len(energy) == 21
    assert np.max(np.abs(record.final_state.values - values)) <= 1e-12
    assert np.max(np.abs(np.array(record.energy) - energy)) <= 1e-12 * max(map(abs, energy))


def test_local_table_is_k_squared():
    for g in (make_grid(2, 16), make_grid(3, 8)):
        table = local_table(g)
        assert table.eta == 0.0
        assert np.array_equal(table.values, g.k_squared())
        assert np.array_equal(table.radial_values, np.unique(g.k_squared()))
        assert _config(g, quartic_potential()).table.eta == 0.0


def test_run_determinism(grid64, quartic):
    config = _config(grid64, quartic, epsilon=0.3, dt=5e-3, t_end=0.05)
    rng = np.random.default_rng(9)
    init = Field(grid64, np.clip(rng.standard_normal(grid64.shape), -1, 1))
    rec1 = run(config, init)
    rec2 = run(config, init)
    assert rec1.energy == rec2.energy
    assert np.array_equal(rec1.final_state.values, rec2.final_state.values)


def test_step_refinement_first_order(quartic):
    g = make_grid(2, 64)
    spec = InterfaceSpec(radius0=1.0, delta0=1.0)
    init = approximate_solution(g, spec, 1.0, 0.125, quartic)
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        config = _config(g, quartic, epsilon=0.25, dt=dt, t_end=0.08,
                         diagnostic_stride=100)
        finals[dt] = run(config, init).final_state.values
    e1 = np.max(np.abs(finals[4e-3] - finals[2e-3]))
    e2 = np.max(np.abs(finals[2e-3] - finals[1e-3]))
    order = math.log2(e1 / e2)
    assert 0.8 <= order <= 1.2


def test_blow_up_detection(grid64, quartic):
    config = _config(grid64, quartic, epsilon=0.05, dt=1e-4, t_end=0.1)
    init = Field(grid64, np.full(grid64.shape, 9.99 * quartic.r0))
    with pytest.raises(BlowUpError) as err:
        run(config, init)
    assert err.value.record is not None
    assert err.value.record.aborted


def test_dealias_flag(grid64, quartic):
    config = _config(grid64, quartic, dealias=True)
    x, _ = grid64.coordinates()
    init = Field(grid64, 0.5 * np.cos(x))
    out = step(init, config)
    cutoff = grid64.points_per_axis // 3
    freqs = grid64.frequency_grids()
    high = (np.abs(freqs[0]) > cutoff) | (np.abs(freqs[1]) > cutoff)
    assert np.max(np.abs(out.coeffs[high])) < 1e-9


def test_record_csv(tmp_path, grid64, quartic):
    config = _config(grid64, quartic, t_end=3e-3)
    record = run(config, Field(grid64, np.ones(grid64.shape)))
    path = tmp_path / "run.csv"
    record.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,energy,sup_norm,h0,h1,h2,h3"
    assert len(lines) == 1 + len(record.times)
