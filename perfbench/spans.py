"""In-memory spans around calls into nlac's modules, and the per-layer metrics.

The wrappers are installed from here, where each calling module looks the
function up (`nlac.verify.symbol_table`, `nlac.solver.total_energy`, ...), so
nothing inside the program changes.  FFT calls are counted by wrapping the
`numpy.fft` and `scipy.fft` entry points and charged to the innermost open
span.  Spans are kept in memory and written out once, when the round ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

#: (module, attribute, span name) for every wrapped function.
_FUNCTIONS = (
    ("nlac.cli", "symbol_table", "kernel.symbol_table"),
    ("nlac.verify", "symbol_table", "kernel.symbol_table"),
    ("nlac.cli", "normalize", "kernel.normalize"),
    ("nlac.io", "normalize", "kernel.normalize"),
    ("nlac.cli", "run", "solver.run"),
    ("nlac.verify", "run", "solver.run"),
    ("nlac.solver", "total_energy", "solver.total_energy"),
    ("nlac.solver", "f_eval", "potential.f_eval"),
    ("nlac.verify", "f_eval", "potential.f_eval"),
    ("nlac.solver", "sobolev_norm", "grid.sobolev_norm"),
    ("nlac.verify", "sobolev_norm", "grid.sobolev_norm"),
    ("nlac.grid", "forward_transform", "grid.forward_transform"),
    ("nlac.verify", "consistency_residual", "ops.consistency_residual"),
    ("nlac.verify", "extract_radius", "geometry.extract_radius"),
    ("nlac.verify", "approximate_solution", "geometry.approximate_solution"),
    ("nlac.cli", "approximate_solution", "geometry.approximate_solution"),
    ("nlac.cli", "spectral_floor", "verify.spectral_floor"),
    ("nlac.io", "load_manifest", "io.load_manifest"),
    ("nlac.io", "write_report", "io.write_report"),
    ("nlac.io", "write_snapshot", "io.write_snapshot"),
)

#: (class path, method, span name): writers whose output size is counted.
_METHODS = (
    ("nlac.solver", "RunRecord", "to_csv", "solver.to_csv"),
    ("nlac.kernel", "SymbolTable", "to_csv", "kernel.to_csv"),
)

_WRITERS = ("io.write_report", "io.write_snapshot", "solver.to_csv", "kernel.to_csv")

#: direct children of `solver.run` that make up one diagnostic log
_LOG_SPANS = ("solver.total_energy", "grid.sobolev_norm")


#: unit of every per-layer metric, in the order `layer_metrics` reports them
LAYER_UNITS = {
    "kernel.symbol_table.calls": "count",
    "kernel.symbol_table.s": "s",
    "kernel.radii": "count",
    "kernel.us_per_radius": "us",
    "kernel.radii_used_ratio": "ratio",
    "kernel.normalize.s": "s",
    "solver.steps": "count",
    "solver.run.self_s": "s",
    "solver.step_ms": "ms",
    "solver.ffts_per_step": "count",
    "solver.total_energy.calls": "count",
    "solver.total_energy.s": "s",
    "solver.log_ms": "ms",
    "solver.to_csv.s": "s",
    "potential.f_eval.calls": "count",
    "potential.f_eval.s": "s",
    "grid.sobolev_norm.calls": "count",
    "grid.sobolev_norm.s": "s",
    "grid.forward_transform.calls": "count",
    "ops.consistency_residual.calls": "count",
    "ops.consistency_residual.s": "s",
    "geometry.extract_radius.calls": "count",
    "geometry.extract_radius.s": "s",
    "geometry.approximate_solution.calls": "count",
    "geometry.approximate_solution.s": "s",
    "verify.spectral_floor.s": "s",
    "verify.outer_iters": "count",
    "verify.s_per_outer_iter": "s",
    "verify.ffts_per_outer_iter": "count",
    "io.load_manifest.s": "s",
    "io.write_report.s": "s",
    "io.write_snapshot.s": "s",
    "io.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans with name, start, end, parent and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        # id(table) -> (table, set of used radius indices); holding the table
        # keeps its id from being reused by a later one
        self._tables = {}
        self._restore = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        self._count(span, args, result)
        return result

    def count_fft(self) -> None:
        if self._stack:
            counts = self._stack[-1]["counts"]
            counts["fft"] = counts.get("fft", 0) + 1

    # -- counts recorded at the span boundaries --------------------------

    def _count(self, span: dict, args, result) -> None:
        name, counts = span["name"], span["counts"]
        if name == "kernel.symbol_table":
            counts["radii"] = len(result.radii)
            self._tables[id(result)] = (result, set())
        elif name == "kernel.to_csv":
            self._mark_used(args[0], None)
        elif name == "solver.run":
            config, initial = args[0], args[1]
            counts["steps"] = config.num_steps()
            counts["logs"] = len(result.times)
            if config.table is not None:
                self._mark_used(config.table, initial)
        elif name == "ops.consistency_residual":
            self._mark_used(args[1], args[0])
        elif name == "verify.spectral_floor":
            counts["outer_iters"] = result.iterations
        if name in _WRITERS:
            path = args[1]
            counts["bytes"] = os.path.getsize(path)

    def _mark_used(self, table, field) -> None:
        """Record the radii of `table` at which `field` has a nonzero coefficient.

        With no field, the whole table is the output, so every radius is used.
        """
        entry = self._tables.get(id(table))
        if entry is None:
            return
        if field is None:
            entry[1].update(range(len(table.radii)))
            return
        coeffs = np.abs(field.coeffs)
        mask = coeffs > 1e-12 * coeffs.max()
        ksq = np.rint(table.grid.k_squared()[mask]).astype(np.int64)
        radii_sq = np.rint(np.asarray(table.radii) ** 2).astype(np.int64)
        entry[1].update(np.unique(np.searchsorted(radii_sq, ksq)).tolist())

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the program's functions and the FFT entry points."""
        import scipy.fft  # here, so that untraced set-up does not pay for it

        def wrapping(name, fn):
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
            return wrapper

        def counting(fn):
            def wrapper(*args, **kwargs):
                self.count_fft()
                return fn(*args, **kwargs)
            return wrapper

        for module, attr, name in _FUNCTIONS:
            owner = importlib.import_module(module)
            if hasattr(owner, attr):  # a function the program no longer has reads 0 calls
                self._patch(owner, attr, wrapping(name, getattr(owner, attr)))
        for module, cls, attr, name in _METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, attr, wrapping(name, getattr(owner, attr)))
        for owner in (np.fft, scipy.fft):
            for attr in _FFT_NAMES:
                self._patch(owner, attr, counting(getattr(owner, attr)))

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def used_radii(self) -> int:
        return sum(len(used) for _, used in self._tables.values())

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def inclusive_ffts(spans) -> dict:
    """Span id -> FFT calls made inside the span or any of its descendants."""
    total = {span["id"]: span["counts"].get("fft", 0) for span in spans}
    for span in reversed(spans):  # children are opened after their parent
        if span["parent"] is not None:
            total[span["parent"]] += total[span["id"]]
    return total


def layer_metrics(spans, used_radii: int) -> dict:
    """The per-layer metrics of one traced round, by name, in the README's units.

    A module the round did not reach reads zero calls and zero seconds.
    """
    calls = defaultdict(int)
    secs = defaultdict(float)
    counts = defaultdict(int)
    for span in spans:
        calls[span["name"]] += 1
        secs[span["name"]] += span["end"] - span["start"]
        for key, value in span["counts"].items():
            counts[span["name"], key] += value
    selfs = self_times(spans)
    ffts = inclusive_ffts(spans)
    by_id = {span["id"]: span for span in spans}

    run_ids = {s["id"] for s in spans if s["name"] == "solver.run"}
    run_self = sum(selfs[i] for i in run_ids)
    step_fft = sum(by_id[i]["counts"].get("fft", 0) for i in run_ids)
    log_s = step_s = 0.0
    for span in spans:
        if span["parent"] in run_ids:
            if span["name"] in _LOG_SPANS:
                log_s += span["end"] - span["start"]
            elif span["name"] == "potential.f_eval":
                step_s += span["end"] - span["start"]
            # anything else under run (observers) counts in neither
    step_s += run_self
    steps = counts["solver.run", "steps"]
    logs = counts["solver.run", "logs"]
    radii = counts["kernel.symbol_table", "radii"]
    outer = counts["verify.spectral_floor", "outer_iters"]
    floor_ffts = sum(ffts[s["id"]] for s in spans if s["name"] == "verify.spectral_floor")

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    return {
        "kernel.symbol_table.calls": calls["kernel.symbol_table"],
        "kernel.symbol_table.s": secs["kernel.symbol_table"],
        "kernel.radii": radii,
        "kernel.us_per_radius": ratio(secs["kernel.symbol_table"], radii, 1e6),
        "kernel.radii_used_ratio": ratio(used_radii, radii),
        "kernel.normalize.s": secs["kernel.normalize"],
        "solver.steps": steps,
        "solver.run.self_s": run_self,
        "solver.step_ms": ratio(step_s, steps, 1e3),
        "solver.ffts_per_step": ratio(step_fft, steps),
        "solver.total_energy.calls": calls["solver.total_energy"],
        "solver.total_energy.s": secs["solver.total_energy"],
        "solver.log_ms": ratio(log_s, logs, 1e3),
        "solver.to_csv.s": secs["solver.to_csv"],
        "potential.f_eval.calls": calls["potential.f_eval"],
        "potential.f_eval.s": secs["potential.f_eval"],
        "grid.sobolev_norm.calls": calls["grid.sobolev_norm"],
        "grid.sobolev_norm.s": secs["grid.sobolev_norm"],
        "grid.forward_transform.calls": calls["grid.forward_transform"],
        "ops.consistency_residual.calls": calls["ops.consistency_residual"],
        "ops.consistency_residual.s": secs["ops.consistency_residual"],
        "geometry.extract_radius.calls": calls["geometry.extract_radius"],
        "geometry.extract_radius.s": secs["geometry.extract_radius"],
        "geometry.approximate_solution.calls": calls["geometry.approximate_solution"],
        "geometry.approximate_solution.s": secs["geometry.approximate_solution"],
        "verify.spectral_floor.s": secs["verify.spectral_floor"],
        "verify.outer_iters": outer,
        "verify.s_per_outer_iter": ratio(secs["verify.spectral_floor"], outer),
        "verify.ffts_per_outer_iter": ratio(floor_ffts, outer),
        "io.load_manifest.s": secs["io.load_manifest"],
        "io.write_report.s": secs["io.write_report"],
        "io.write_snapshot.s": secs["io.write_snapshot"],
        "io.bytes_written": sum(counts[name, "bytes"] for name in _WRITERS),
    }
