"""Tests of the benchmark itself: its checks reject doctored outputs, its
manifests are valid, and its tracer counts what the README says.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import struct
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ETA_3D = workloads.SYMBOL_3D["eta"]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


# -- consistency ---------------------------------------------------------------

def _consistency_out(tmp_path, slope=1.0, k_scale=1.0, bad_entry=False):
    _write_json(tmp_path / "consistency.json",
                {"slope": slope, "max_k": k_scale * checks.consistency_constant()})
    c3 = checks.expansion_constant(3)
    with open(tmp_path / "symbol.csv", "w") as fh:
        fh.write("k_abs,m_eta\n0,0\n")
        for q in range(1, 20):
            k = math.sqrt(q)
            m = -1.0 if bad_entry and q == 7 else k * k - c3 * ETA_3D ** 2 * k ** 4
            fh.write(f"{k!r},{m!r}\n")
    return str(tmp_path)


def test_consistency_accepts_expected_output(tmp_path):
    failures, err = checks.check_consistency(_consistency_out(tmp_path), ETA_3D)
    assert failures == [] and err < 1e-12


@pytest.mark.parametrize("kwargs", [{"slope": 2.0}, {"k_scale": 1.03},
                                    {"bad_entry": True}])
def test_consistency_rejects_doctored_output(tmp_path, kwargs):
    failures, _ = checks.check_consistency(_consistency_out(tmp_path, **kwargs), ETA_3D)
    assert failures


def test_closed_form_constants():
    # the values the program's own tests pin, computed here independently
    assert checks.expansion_constant(2) == pytest.approx(0.056262, rel=1e-4)
    assert checks.expansion_constant(3) == pytest.approx(0.045009, rel=1e-4)
    assert checks.consistency_constant() == pytest.approx(0.143 / (2 * math.pi), rel=1e-2)


# -- flow ----------------------------------------------------------------------

@pytest.mark.parametrize("error,ok", [(0.001, True), (0.05, False)])
def test_flow_radius_error(tmp_path, error, ok):
    _write_json(tmp_path / "mcf.json", {"radius_errors": {"0.04": error}})
    failures, err = checks.check_flow(str(tmp_path), 1.0)
    assert (failures == []) == ok and err == error


# -- energy --------------------------------------------------------------------

N, EPS = 32, 0.3


def _energy_out(tmp_path, rise=False, sup=1.0, last_shift=0.0, truncate=False):
    x = np.arange(N) * (2 * math.pi / N)
    r = np.sqrt((x[:, None] - math.pi) ** 2 + (x[None, :] - math.pi) ** 2) - 1.0
    c = np.tanh(r / (EPS * math.sqrt(2)))
    final = checks.local_energy(c, EPS)
    energies = [final + 0.2, final + 0.1, final + last_shift]
    if rise:
        energies[1] = energies[0] + 1e-6
    with open(tmp_path / "run.csv", "w") as fh:
        fh.write("t,energy,sup_norm,h0,h1,h2,h3\n")
        for i, e in enumerate(energies):
            fh.write(f"{0.01 * i!r},{e!r},{sup!r},0,0,0,0\n")
    blob = b"NLAC" + struct.pack("<BIB", 2, N, 0) + c.astype("<f8").tobytes()
    with open(tmp_path / "final.nlac", "wb") as fh:
        fh.write(blob[:-8] if truncate else blob)
    return str(tmp_path)


def test_energy_accepts_expected_output(tmp_path):
    failures, err = checks.check_energy(_energy_out(tmp_path), EPS, N, 1.0)
    assert failures == [] and err < 0.1


@pytest.mark.parametrize("kwargs", [{"rise": True}, {"sup": 1.01},
                                    {"last_shift": 1e-3}])
def test_energy_rejects_doctored_output(tmp_path, kwargs):
    failures, _ = checks.check_energy(_energy_out(tmp_path, **kwargs), EPS, N, 1.0)
    assert failures


def test_energy_rejects_truncated_snapshot(tmp_path):
    with pytest.raises(ValueError, match="does not hold"):
        checks.check_energy(_energy_out(tmp_path, truncate=True), EPS, N, 1.0)


def test_area_radius_of_a_disc():
    x = np.arange(256) * (2 * math.pi / 256)
    r = np.sqrt((x[:, None] - 3.0) ** 2 + (x[None, :] - 2.0) ** 2) - 1.2
    assert checks.area_radius(np.tanh(r / 0.05)) == pytest.approx(1.2, rel=1e-3)


# -- spectral floor ------------------------------------------------------------

def _floor_out(tmp_path, values, converged=True):
    _write_json(tmp_path / "spectral_floor.json", {
        "table": [[eps, v] for eps, v in values.items()],
        "converged": {str(eps): converged for eps in values}})
    return str(tmp_path)


def _expected_floors():
    return {eps: checks.radial_floor(eps, 1.0) for eps in (0.2, 0.1)}


def test_spectral_floor_accepts_expected_output(tmp_path):
    failures, err = checks.check_spectral_floor(
        _floor_out(tmp_path, _expected_floors()), 64, [0.0, 0.0], 1.0)
    assert failures == [] and err < 1e-12


@pytest.mark.parametrize("doctor", ["below", "unconverged", "off_reference"])
def test_spectral_floor_rejects_doctored_output(tmp_path, doctor):
    values = _expected_floors()
    if doctor == "below":
        values[0.1] = -1.0 / 0.1 ** 2 - 1.0
    elif doctor == "off_reference":
        values[0.1] *= 1.01
    out = _floor_out(tmp_path, values, converged=doctor != "unconverged")
    failures, _ = checks.check_spectral_floor(out, 64, [0.0, 0.0], 1.0)
    assert failures


# -- workloads and the benchmark's declaration ---------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_manifests_parse_and_depend_only_on_seed(workload):
    from nlac.io import parse_manifest

    first = workloads.manifest(workload, 7)
    assert first == workloads.manifest(workload, 7)
    mani = parse_manifest(first)
    if mani.interface is not None:
        h = mani.grid.spacing
        for c in mani.interface.center:
            assert abs(c / h - round(c / h)) < 1e-9  # a grid node


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# -- tracing -------------------------------------------------------------------

def test_self_time_subtracts_children():
    tree = [{"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0, "counts": {"fft": 1}},
            {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 3.0, "counts": {"fft": 2}},
            {"id": 2, "name": "c", "parent": 1, "start": 1.5, "end": 2.0, "counts": {}},
            {"id": 3, "name": "b", "parent": 0, "start": 5.0, "end": 6.0, "counts": {}}]
    assert spans.self_times(tree) == {0: 7.0, 1: 1.5, 2: 0.5, 3: 1.0}
    assert spans.inclusive_ffts(tree) == {0: 3, 1: 2, 2: 0, 3: 0}


def test_tracer_counts_a_simulation(tmp_path):
    import nlac.cli

    manifest = {"study": "simulate", "grid": {"dim": 2, "points_per_axis": 32},
                "interface": {"radius0": 1.0},
                "solver": {"epsilon": 0.07, "dt": 1e-3, "t_end": 5e-3,
                           "diagnostic_stride": 5}}
    _write_json(tmp_path / "m.json", manifest)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.simulate", nlac.cli.main,
                           ["simulate", "--manifest", str(tmp_path / "m.json"),
                            "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    layers = spans.layer_metrics(tracer.spans, tracer.used_radii())
    assert layers["solver.steps"] == 5
    assert layers["solver.ffts_per_step"] == 3.0  # fftn state, fftn f'(c), ifftn
    assert layers["solver.total_energy.calls"] == 2  # t = 0 and the last step
    assert layers["grid.sobolev_norm.calls"] == 8
    assert layers["potential.f_eval.calls"] == 5 + 2
    assert layers["kernel.symbol_table.calls"] == 0
    assert layers["io.bytes_written"] == (os.path.getsize(tmp_path / "run.csv")
                                          + os.path.getsize(tmp_path / "final.nlac"))
    assert all(span["end"] >= span["start"] for span in tracer.spans)
    assert np.fft.fftn.__module__ == "numpy.fft"  # wrappers removed


def test_tracer_counts_used_radii(tmp_path):
    import nlac.cli

    _write_json(tmp_path / "m.json", {"study": "consistency",
                                      "grid": {"dim": 2, "points_per_axis": 16},
                                      "params": {"etas": [1.0, 0.5, 0.25, 0.125]}})
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.call("cli.consistency", nlac.cli.main,
                    ["consistency", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    layers = spans.layer_metrics(tracer.spans, tracer.used_radii())
    # 16 single modes, j e_1 and j (1, 1) for j = 1..8, at 16 distinct radii
    assert tracer.used_radii() == 4 * 16
    assert layers["kernel.radii_used_ratio"] == 4 * 16 / layers["kernel.radii"]
    assert layers["ops.consistency_residual.calls"] == 4 * 16
    assert layers["kernel.symbol_table.calls"] == 4
