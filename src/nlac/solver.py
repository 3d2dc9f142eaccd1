"""Stabilized semi-implicit spectral time stepping for the phase-field equation.

One step solves, in frequency space,

    c_hat^{m+1} = [c_hat^m + (dt/eps^2)(s c_hat^m - F(f'(c^m)))]
                  / (1 + dt (m(k) + s/eps^2)),

where m(k) is the operator's multiplier: the nonlocal symbol, or |k|^2 for
the local equation.  The linear part is implicit, the nonlinearity explicit
with stabilizer s; the scheme dissipates the total energy for dt below dt_max.
The state is c_hat = rfftn(c) on the real half spectrum, so a step is
c_hat <- A c_hat - B rfftn(f'(irfftn c_hat)) with A and B fixed per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import Field, TorusGrid, sobolev_norm
from .kernel import SymbolTable, local_table
from .ops import nonlocal_energy
from .potential import PotentialSpec, f_eval


class SolverError(ValueError):
    pass


class BlowUpError(RuntimeError):
    """Raised when a state leaves the trust region; carries the partial record,
    whose times end at the last log and whose final_state is None."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


def dt_max(stabilizer: float, epsilon: float, potential: PotentialSpec) -> float:
    """Largest stable step: eps^2 / (2 max(0, f''_max - s)); unbounded if s covers f''."""
    gap = potential.fpp_max - stabilizer
    if gap <= 0.0:
        return math.inf
    return epsilon ** 2 / (2.0 * gap)


@dataclass(frozen=True)
class SolverConfig:
    grid: TorusGrid
    epsilon: float
    dt: float
    t_end: float
    potential: PotentialSpec
    table: SymbolTable | None = None  # None selects the local operator, local_table(grid)
    stabilizer: float = 0.0
    diagnostic_stride: int = 1

    def __post_init__(self):
        if self.epsilon <= 0.0 or self.dt <= 0.0 or self.t_end <= 0.0:
            raise SolverError("epsilon, dt and t_end must be positive")
        if self.stabilizer < 0.0:
            raise SolverError("stabilizer must be nonnegative")
        if self.diagnostic_stride < 1:
            raise SolverError("diagnostic_stride must be >= 1")
        if self.num_steps() < 1:
            raise SolverError(f"t_end {self.t_end} rounds to no step of dt {self.dt}")
        if self.table is None:
            object.__setattr__(self, "table", local_table(self.grid))
        if self.table.grid != self.grid:
            raise SolverError("symbol table grid does not match solver grid")
        cap = dt_max(self.stabilizer, self.epsilon, self.potential)
        if self.dt > cap * (1.0 + 1e-12):
            raise SolverError(f"dt {self.dt} exceeds stability bound {cap}")

    def num_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class RunRecord:
    times: list = dc_field(default_factory=list)
    energy: list = dc_field(default_factory=list)
    sup_norm: list = dc_field(default_factory=list)
    sobolev: dict = dc_field(default_factory=lambda: {0: [], 1: [], 2: [], 3: []})
    final_state: Field | None = None

    def to_csv(self, path) -> None:
        rows = [self.times, self.energy, self.sup_norm, *(self.sobolev[s] for s in range(4))]
        with open(path, "w") as fh:
            fh.write("t,energy,sup_norm,h0,h1,h2,h3\n")
            for vals in zip(*rows):
                fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")


def _stepper(config: SolverConfig):
    """(c_hat, c) -> A c_hat - B rfftn(f'(c)); the (2pi/N)^d coefficient
    normalization cancels in the linear update."""
    grid, ratio, s = config.grid, config.dt / config.epsilon ** 2, config.stabilizer
    denom = 1.0 + config.dt * (config.table.values + s / config.epsilon ** 2)
    a, b = (1.0 + ratio * s) / denom, ratio / denom
    fprime, a_chat = np.empty(grid.shape), np.empty(a.shape, np.complex128)  # reused every step

    def advance(chat, values):
        out = grid.rfftn(f_eval(config.potential, values, 1, out=fprime))
        out *= b
        return np.subtract(np.multiply(a, chat, out=a_chat), out, out=out)

    return advance


def total_energy(state: Field, config: SolverConfig) -> float:
    """Phi(c) = operator energy + eps^{-2} * nodal integral of f(c)."""
    well = np.sum(f_eval(config.potential, state.values, 0)) * state.grid.cell_volume
    return float(nonlocal_energy(state, config.table) + well / config.epsilon ** 2)


def run(config: SolverConfig, initial: Field, observer=None) -> RunRecord:
    """Step to t_end, recording diagnostics every diagnostic_stride steps.

    observer, if given, is called as observer(t, field) at every diagnostic
    time including t = 0.  Each logged field carries the stepper's c_hat, so
    a log makes no FFT; the energy and the four Sobolev norms read the field's
    one cached power, and the sup norm is the one the blow-up check took.
    Deterministic: identical (config, initial) pairs produce identical
    records.
    """
    if initial.grid != config.grid:
        raise SolverError("initial state grid does not match config grid")
    advance = _stepper(config)
    blow_up_cap = 10.0 * config.potential.r0

    record = RunRecord()

    def log(t: float, fld: Field, sup: float) -> None:
        record.times.append(t)
        record.energy.append(total_energy(fld, config))
        record.sup_norm.append(sup)
        for s_ord in (0, 1, 2, 3):
            record.sobolev[s_ord].append(sobolev_norm(fld, s_ord))
        if observer is not None:
            observer(t, fld)

    chat = initial.spectrum
    log(0.0, initial, initial.sup_norm())
    values = initial.values
    n_steps = config.num_steps()
    for m in range(1, n_steps + 1):
        chat = advance(chat, values)
        values = config.grid.irfftn(chat)
        sup = float(np.max(np.abs(values)))  # NaN propagates, so isfinite catches it
        if not math.isfinite(sup) or sup > blow_up_cap:
            raise BlowUpError(
                f"blow-up at step {m} (t={m * config.dt:.6g}): sup={sup}", record)
        if m % config.diagnostic_stride == 0 or m == n_steps:
            log(m * config.dt, Field(config.grid, values, chat), sup)
    record.final_state = Field(config.grid, values, chat)
    return record
