import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlac.geometry import InterfaceSpec, approximate_solution
from nlac.grid import Field, make_grid, sobolev_norm
from nlac.kernel import MollifierSpec, local_table, symbol_table
from nlac.solver import BlowUpError, SolverConfig, SolverError, dt_max, run, total_energy
from nlac.potential import f_eval, quartic_potential
from nlac.verify import band_limited_field


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


@pytest.mark.parametrize("t_end", [4e-4, 4.99e-4])
def test_run_of_no_step_rejected(grid64, quartic, t_end):
    # t_end below dt/2 rounds to zero steps: a run that would check nothing
    with pytest.raises(SolverError, match="no step"):
        _config(grid64, quartic, dt=1e-3, t_end=t_end)
    assert _config(grid64, quartic, dt=1e-3, t_end=5.01e-4).num_steps() == 1


def test_linear_single_mode_amplitude(grid64, quartic):
    # tiny amplitude makes the cubic term negligible, so the scheme reduces to
    # the scalar recurrence a -> a (1 + dt(s+1)/eps^2) / (1 + dt(|k|^2 + s/eps^2))
    # (the f' ~ -c linear part joins the explicit side)
    dt, s = 0.1, 2.0
    config = _config(grid64, quartic, stabilizer=s, epsilon=1.0, dt=dt, t_end=dt)
    x, _ = grid64.coordinates()
    amp = 1e-9
    out = run(config, Field(grid64, amp * np.cos(x))).final_state
    factor = (1.0 + dt * (s + 1.0)) / (1.0 + dt * (1.0 + s))
    assert np.max(np.abs(out.values - amp * factor * np.cos(x))) < 1e-20


def test_equilibria(grid64, quartic):
    config = _config(grid64, quartic, t_end=1e-3)
    for value in (1.0, -1.0, 0.0):
        state = Field(grid64, np.full(grid64.shape, value))
        out = run(config, state).final_state
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
    table = symbol_table(MollifierSpec(dim=dim), 0.1, g)
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


@functools.lru_cache(maxsize=None)
def _grid_and_table(dim, points, eta):
    """The grid and its operator table (None: local), built once per case."""
    g = make_grid(dim, points)
    return g, None if eta is None else symbol_table(MollifierSpec(dim=dim), eta, g)


@pytest.mark.parametrize("eta", [None, 0.2], ids=["local", "eta0.2"])
@pytest.mark.parametrize("dim,points", [(2, 64), (3, 16)])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), eps_per_h=st.floats(1.5, 4.0))
def test_run_maximum_principle_random_states(quartic, dim, points, eta, seed, eps_per_h):
    # a random band-limited state of sup 1 stays in [-r0, r0] when the
    # stabilizer covers f'' on [-1, 1] (s = 2) and the interface is resolved,
    # eps >= 1.5 h.  Under-resolved runs break the bound: at this dt, over 15
    # seeds, eps/h = 0.5 on 64^2 (local) overshot by 0.0066, and eps/h = 0.25
    # on 16^3 by 0.051 (local) and 0.040 (eta 0.2); so the draw stays resolved.
    g, table = _grid_and_table(dim, points, eta)
    init = band_limited_field(g, points // 4, np.random.default_rng(seed))
    config = _config(g, quartic, table=table, epsilon=eps_per_h * g.spacing,
                     dt=5e-3, t_end=0.1)
    record = run(config, init)
    assert max(record.sup_norm) <= quartic.r0 + 1e-12


def _reference_run(config, initial, full_lattice):
    """The full complex update (c_hat + dt/eps^2 (s c_hat - F f'(c))) / denom."""
    g = config.grid
    eps2, s = config.epsilon ** 2, config.stabilizer
    denom = 1.0 + config.dt * (full_lattice(config.table) + s / eps2)
    values = initial.values
    energy = [total_energy(initial, config)]
    for _ in range(config.num_steps()):
        chat = np.fft.fftn(values)
        fphat = np.fft.fftn(f_eval(config.potential, values, 1))
        new = (chat + (config.dt / eps2) * (s * chat - fphat)) / denom
        values = np.real(np.fft.ifftn(new))
        energy.append(total_energy(Field(g, values), config))
    return values, energy


@pytest.mark.parametrize("nonlocal_", [False, True])
@pytest.mark.parametrize("dim,points", [(2, 64), (3, 16)])
def test_run_matches_full_complex_update(quartic, full_lattice, dim, points, nonlocal_):
    g = make_grid(dim, points)
    table = symbol_table(MollifierSpec(dim=dim), 0.2, g) if nonlocal_ else None
    config = _config(g, quartic, table=table, epsilon=0.3, dt=5e-3, t_end=0.1)
    init = approximate_solution(g, InterfaceSpec(radius0=1.0, delta0=1.0), 1.0,
                                0.12, quartic)
    values, energy = _reference_run(config, init, full_lattice)
    record = run(config, init)
    assert len(record.energy) == len(energy) == 21
    assert np.max(np.abs(record.final_state.values - values)) <= 1e-12
    assert np.max(np.abs(np.array(record.energy) - energy)) <= 1e-12 * max(map(abs, energy))


@pytest.mark.parametrize("dim,points", [(2, 64), (3, 16)])
def test_logged_diagnostics_match_fresh_fields(quartic, dim, points):
    # the log reads the stepper's c_hat and the step's sup; a field rebuilt
    # from the logged values must give the same energy and norms, and the
    # same sup to the bit
    g = make_grid(dim, points)
    config = _config(g, quartic, table=symbol_table(MollifierSpec(dim=dim), 0.2, g),
                     epsilon=0.3, dt=5e-3, t_end=0.05)
    init = approximate_solution(g, InterfaceSpec(radius0=1.0, delta0=1.0), 1.0,
                                0.12, quartic)
    logged = []
    record = run(config, init, observer=lambda t, fld: logged.append(fld.values))
    assert len(logged) == len(record.times) == 11
    for i, values in enumerate(logged):
        fresh = Field(g, values)
        assert record.sup_norm[i] == fresh.sup_norm()
        assert record.energy[i] == pytest.approx(total_energy(fresh, config), rel=1e-12)
        for s in range(4):
            assert record.sobolev[s][i] == pytest.approx(sobolev_norm(fresh, s), rel=1e-12)
    assert np.array_equal(record.final_state.values, logged[-1])
    assert record.final_state.sup_norm() == record.sup_norm[-1]


def _kept_ffts(monkeypatch) -> dict:
    """Wrap numpy.fft's real transform pair to keep every output, by name."""
    outputs = {"rfftn": [], "irfftn": []}
    for name, kept in outputs.items():
        def wrapper(*args, _inner=getattr(np.fft, name), _kept=kept, **kw):
            _kept.append(_inner(*args, **kw))
            return _kept[-1]
        monkeypatch.setattr(np.fft, name, wrapper)
    return outputs


@pytest.mark.parametrize("stride", [1, 3])
def test_run_ffts_one_pair_per_step(grid64, quartic, monkeypatch, stride):
    # n steps: one rfftn of the initial state, then one rfftn and one irfftn
    # per step; a diagnostic log makes none
    config = _config(grid64, quartic, epsilon=0.3, dt=5e-3, t_end=0.05,
                     diagnostic_stride=stride)
    x, _ = grid64.coordinates()
    init = Field(grid64, 0.5 * np.cos(x))
    outputs = _kept_ffts(monkeypatch)
    record = run(config, init)
    n = config.num_steps()
    assert n == 10 and len(record.times) == 1 + (10 if stride == 1 else 4)
    assert {name: len(kept) for name, kept in outputs.items()} == {"rfftn": n + 1, "irfftn": n}


def test_run_fields_share_the_step_arrays(grid64, quartic, monkeypatch):
    # a logged field takes the step's fresh irfftn output and c_hat, the
    # rfftn output the update wrote into, without copying either
    config = _config(grid64, quartic, epsilon=0.3, dt=5e-3, t_end=0.02)
    x, _ = grid64.coordinates()
    init = Field(grid64, 0.5 * np.cos(x))
    outputs = _kept_ffts(monkeypatch)
    logged = []
    record = run(config, init, observer=lambda t, fld: logged.append(fld))
    assert len(logged) == 5 and logged[0] is init
    for fld, values, chat in zip(logged[1:], outputs["irfftn"], outputs["rfftn"][1:]):
        assert fld.values is values and fld.spectrum is chat
        assert not (values.flags.writeable or chat.flags.writeable)
    assert record.final_state.values is logged[-1].values


def test_local_table_is_k_squared(full_lattice):
    for g in (make_grid(2, 16), make_grid(3, 8)):
        table = local_table(g)
        assert table.eta == 0.0
        assert np.array_equal(full_lattice(table), g.k_squared())
        assert np.array_equal(table.values, g.half_spectrum(g.k_squared()))
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


@pytest.mark.parametrize("start", [9.99, math.nan], ids=["past_cap", "nan"])
def test_blow_up_detection(grid64, quartic, start):
    # a state past the trust region, and one that is not a number at all
    config = _config(grid64, quartic, epsilon=0.05, dt=1e-4, t_end=0.1)
    init = Field(grid64, np.full(grid64.shape, start * quartic.r0))
    with pytest.raises(BlowUpError, match="blow-up at step 1 ") as err:
        run(config, init)
    assert err.value.record is not None
    assert err.value.record.times == [0.0]  # the partial record ends at the last log
    assert err.value.record.final_state is None


def test_record_csv(tmp_path, grid64, quartic):
    config = _config(grid64, quartic, t_end=3e-3)
    record = run(config, Field(grid64, np.ones(grid64.shape)))
    path = tmp_path / "run.csv"
    record.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,energy,sup_norm,h0,h1,h2,h3"
    assert len(lines) == 1 + len(record.times)
