import argparse
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import nlac.cli
from nlac.cli import _build_parser, main
from nlac.grid import Field
from nlac.io import STUDIES, read_snapshot


def _write_manifest(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_manifest(tmp_path, capsys):
    code = main(["simulate", "--manifest", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_manifest(tmp_path, capsys):
    path = _write_manifest(tmp_path, {"study": "simulate",
                                      "grid": {"dim": 2, "points_per_axis": 6}})
    assert main(["simulate", "--manifest", path, "--out", str(tmp_path / "out")]) == 2


def test_simulate_equilibrium(tmp_path):
    # circle initial data relaxes; csv plus final snapshot appear
    manifest = _write_manifest(tmp_path, {
        "study": "simulate",
        "grid": {"dim": 2, "points_per_axis": 64},
        "interface": {"radius0": 1.0},
        # dt above dt_max(0) = eps^2/4 = 6.25e-4 needs a stabilizer covering f''
        "solver": {"epsilon": 0.05, "dt": 5e-3, "t_end": 0.02, "stabilizer": 2.0},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--manifest", manifest, "--out", str(out)]) == 0
    lines = (out / "run.csv").read_text().strip().split("\n")
    assert lines[0] == "t,energy,sup_norm,h0,h1,h2,h3"
    snap = read_snapshot(out / "final.nlac")
    assert snap.grid.points_per_axis == 64


def test_profile_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["profile", "--rho-max", "5", "--count", "11",
                 "--out", str(out)]) == 0
    lines = (out / "profile.csv").read_text().strip().split("\n")
    assert lines[0] == "rho,theta0"
    assert len(lines) == 12
    mid = lines[6].split(",")
    assert float(mid[0]) == 0.0 and float(mid[1]) == 0.0


def test_symbol_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["symbol", "--dim", "2", "--eta", "0.5",
                 "--points-per-axis", "4", "--out", str(out)]) == 0
    lines = (out / "symbol.csv").read_text().strip().split("\n")
    assert lines[0] == "k_abs,m_eta"
    assert len(lines) == 7  # six distinct radii on the 4x4 lattice


def test_ehrling_subcommand(tmp_path):
    manifest = _write_manifest(tmp_path, {
        "study": "ehrling",
        "grid": {"dim": 2, "points_per_axis": 32},
        "params": {"r_values": [1.0, 2.0], "trials": 5},
        "seed": 3,
    })
    out = tmp_path / "out"
    assert main(["ehrling", "--manifest", manifest, "--out", str(out)]) == 0
    report = json.loads((out / "ehrling.json").read_text())
    assert report["passed"] is True
    assert report["violations"] == 0


def test_seed_flag_determinism(tmp_path):
    manifest = _write_manifest(tmp_path, {
        "study": "ehrling",
        "grid": {"dim": 2, "points_per_axis": 32},
        "params": {"r_values": [1.0], "trials": 5},
    })
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["ehrling", "--manifest", manifest, "--out", str(out),
                     "--seed", "17"]) == 0
        outs.append((out / "ehrling.json").read_bytes())
    assert outs[0] == outs[1]


def test_unknown_param_key(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, {
        "study": "ehrling",
        "grid": {"dim": 2, "points_per_axis": 32},
        "params": {"r_values": [1.0], "trials": 2, "typo": 1},
    })
    assert main(["ehrling", "--manifest", manifest,
                 "--out", str(tmp_path / "out")]) == 2


def _consistency_manifest(tmp_path, params):
    return _write_manifest(tmp_path, {
        "study": "consistency",
        "grid": {"dim": 2, "points_per_axis": 32},
        "params": params,
    })


def test_consistency_subcommand_passes(tmp_path):
    # z*/eta (z* ~ 4.44) stays on the 32^2 mode family for these etas
    manifest = _consistency_manifest(tmp_path, {"etas": [0.5, 0.4, 0.3, 0.25]})
    out = tmp_path / "out"
    assert main(["consistency", "--manifest", manifest, "--out", str(out)]) == 0
    report = json.loads((out / "consistency.json").read_text())
    assert report["passed"] is True
    assert 0.9 <= report["slope"] <= 1.1


def test_consistency_subcommand_fails_on_clipped_sup(tmp_path):
    # at eta = 0.15 the peak z*/eta ~ 30 lies beyond the lattice: slope and
    # K stability still look fine, but the maximiser is the last mode
    manifest = _consistency_manifest(tmp_path, {"etas": [0.5, 0.4, 0.3, 0.15]})
    out = tmp_path / "out"
    assert main(["consistency", "--manifest", manifest, "--out", str(out)]) == 1
    report = json.loads((out / "consistency.json").read_text())
    assert report["passed"] is False
    assert 0.9 <= report["slope"] <= 1.1 and report["k_stability"] <= 0.10
    assert report["argmax"][0] == report["num_fields"] - 1


@pytest.mark.parametrize("key,value", [("cutoff", 8), ("num_fields", 3)])
def test_consistency_rejects_random_field_params(tmp_path, capsys, key, value):
    manifest = _consistency_manifest(tmp_path, {"etas": [0.5, 0.4, 0.3, 0.25],
                                                key: value})
    assert main(["consistency", "--manifest", manifest,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and key in err[0]


def _compare_local_manifest(tmp_path, points_per_axis, etas):
    return _write_manifest(tmp_path, {
        "study": "compare-local",
        "grid": {"dim": 2, "points_per_axis": points_per_axis},
        "interface": {"radius0": 1.0, "delta0": 0.8},
        "solver": {"epsilon": 0.1, "dt": 1e-3, "t_end": 0.02,
                   "diagnostic_stride": 5},
        "params": {"etas": etas},
    })


def test_compare_local_subcommand_passes(tmp_path):
    # eta <= eps^4: the gap is second order in eta
    manifest = _compare_local_manifest(tmp_path, 64, [1e-4, 5e-5, 2.5e-5, 1.25e-5])
    out = tmp_path / "out"
    assert main(["compare-local", "--manifest", manifest, "--out", str(out)]) == 0
    report = json.loads((out / "compare_local.json").read_text())
    assert report["passed"] is True
    assert 1.8 <= report["slope"] <= 2.2


def test_compare_local_subcommand_fails_outside_coupling(tmp_path):
    # eta|k| of order one: the symbol expansion no longer holds, check fails
    manifest = _compare_local_manifest(tmp_path, 32, [0.8, 0.4, 0.2, 0.1])
    out = tmp_path / "out"
    assert main(["compare-local", "--manifest", manifest, "--out", str(out)]) == 1
    assert json.loads((out / "compare_local.json").read_text())["passed"] is False


def _one_error_line(capsys):
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error:")
    return err[0]


@pytest.mark.parametrize("argv", [
    ["symbol", "--dim", "2", "--points-per-axis", "8", "--eta", "inf"],
    ["symbol", "--dim", "2", "--points-per-axis", "8", "--eta", "nan"],
    ["symbol", "--dim", "2", "--points-per-axis", "8", "--eta", "0.5", "--beta", "nan"],
    ["symbol", "--dim", "2", "--points-per-axis", "8", "--eta", "0.5", "--bump-radius", "-inf"],
    ["profile", "--rho-max", "inf"],
    ["profile", "--rho-max", "nan"],
    ["profile", "--rho-max", "0"],
    ["profile", "--count", "0"],
])
def test_bad_float_flag_exits_2(tmp_path, capsys, argv):
    # float() reads inf and nan: each flag rejects them, and no file is written
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert argv[-2] in _one_error_line(capsys)
    assert not out.exists()


def test_workers_flag_rejected(tmp_path, capsys):
    # the symbol is one vectorized pass; there is no worker pool to size
    assert main(["symbol", "--dim", "2", "--eta", "0.5", "--points-per-axis", "4",
                 "--out", str(tmp_path / "out"), "--workers", "2"]) == 2
    assert "--workers" in _one_error_line(capsys)


def test_workers_env_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("NLAC_WORKERS", "two")
    assert main(["profile", "--count", "5", "--out", str(tmp_path / "out")]) == 0


def test_unresolved_symbol_exits_2(tmp_path, capsys):
    # eta|k| far beyond what the radial rule resolves: one line, exit 2
    assert main(["symbol", "--dim", "2", "--eta", "100", "--points-per-axis", "16",
                 "--out", str(tmp_path / "out")]) == 2
    assert "QuadratureError" in _one_error_line(capsys)


def test_symbol_dim_1_exits_2(tmp_path, capsys):
    assert main(["symbol", "--dim", "1", "--eta", "0.5", "--points-per-axis", "16",
                 "--out", str(tmp_path / "out")]) == 2
    assert "dim must be 2 or 3, got 1" in _one_error_line(capsys)


def test_dim_1_manifest_exits_2(tmp_path, capsys):
    # the kernel is defined in 2D and 3D only; the error names the dim at once
    manifest = _write_manifest(tmp_path, {
        "study": "simulate", "grid": {"dim": 1, "points_per_axis": 32},
        "solver": {"epsilon": 0.1, "dt": 1e-3, "t_end": 0.02}})
    out = tmp_path / "out"
    assert main(["simulate", "--manifest", manifest, "--out", str(out)]) == 2
    assert "dim must be 2 or 3, got 1" in _one_error_line(capsys)
    assert not out.exists()


def test_simulate_of_no_step_exits_2(tmp_path, capsys):
    # t_end below dt/2 would write a one-row run.csv without taking a step
    manifest = _write_manifest(tmp_path, {
        "study": "simulate", "grid": {"dim": 2, "points_per_axis": 32},
        "solver": {"epsilon": 0.1, "dt": 1e-3, "t_end": 4e-4}})
    out = tmp_path / "out"
    assert main(["simulate", "--manifest", manifest, "--out", str(out)]) == 2
    assert "SolverError" in _one_error_line(capsys)
    assert list(out.iterdir()) == []


def _mcf_manifest(tmp_path, epsilons, dts):
    return _write_manifest(tmp_path, {
        "study": "mcf",
        "grid": {"dim": 2, "points_per_axis": 128},
        "interface": {"radius0": 1.0, "delta0": 0.8},
        "params": {"epsilons": epsilons, "dts": dts, "eta_rule": "zero",
                   "t_end": 0.004, "diagnostic_stride": 1},
    })


@pytest.mark.parametrize("epsilons", [[0.1, 0.08], [0.1, 0.09, 0.08]])
def test_mcf_rejects_short_dts(tmp_path, capsys, epsilons):
    manifest = _mcf_manifest(tmp_path, epsilons, [1e-4])
    assert main(["mcf", "--manifest", manifest, "--out", str(tmp_path / "out")]) == 2
    assert "dts" in _one_error_line(capsys)


def test_mcf_unsorted_manifest_pairs_dts(tmp_path):
    # the same (epsilon, dt) pairs listed in either order give the same runs
    reports = []
    for name, epsilons, dts in (("given", [0.1, 0.08], [2e-3, 1e-3]),
                                ("sorted", [0.08, 0.1], [1e-3, 2e-3])):
        manifest = _mcf_manifest(tmp_path, epsilons, dts)
        out = tmp_path / name
        assert main(["mcf", "--manifest", manifest, "--out", str(out)]) in (0, 1)
        reports.append(json.loads((out / "mcf.json").read_text()))
    for key in ("radius_errors", "field_errors"):
        assert set(reports[0][key]) == {"0.1", "0.08"}
        assert reports[0][key] == reports[1][key]


@pytest.mark.parametrize("study,section,value,key", [
    ("simulate", "kernel", 5, "kernel"),
    ("simulate", "grid", {"dim": 2, "points_per_axis": "8"}, "points_per_axis"),
    ("mcf", "params", {"epsilons": [0.1], "dts": 0.001}, "dts"),
    ("mcf", "params", {"epsilons": 0.1}, "epsilons"),
    ("spectral-floor", "params", {"epsilons": [0.1, "0.05"]}, "epsilons"),
    ("consistency", "params", {"etas": [0.5, True, 0.3, 0.25]}, "etas"),
    ("ehrling", "params", {"r_values": 2.0}, "r_values"),
    ("simulate", "solver", {"epsilon": "0.1", "dt": 1e-3, "t_end": 1e-2}, "epsilon"),
    ("simulate", "interface", {"radius0": "1.0"}, "radius0"),
    ("simulate", "potential", {"kind": "custom", "coefficients": 5}, "coefficients"),
    ("simulate", "interface", {"radius0": 1.0, "center": 5}, "center"),
    ("ehrling", "params", {"r_values": [1.0], "trials": "3"}, "trials"),
    ("spectral-floor", "params", {"epsilons": [0.1], "tol": "1e-6"}, "tol"),
    ("mcf", "params", {"epsilons": [0.3], "t_end": "0.01"}, "t_end"),
    # non-finite numbers, from raw JSON text: json reads NaN and Infinity
    ("simulate", "solver", json.loads('{"epsilon": NaN, "dt": 1e-3, "t_end": 1e-2}'), "epsilon"),
    ("ehrling", "params", json.loads('{"r_values": [NaN]}'), "r_values"),
    ("spectral-floor", "params", json.loads('{"epsilons": [0.5], "tol": Infinity}'), "tol"),
    ("simulate", "study", [], "manifest.study must be a string, got []"),
    ("simulate", "study", {}, "manifest.study must be a string, got {}"),
])
def test_mistyped_manifest_exits_2(tmp_path, capsys, study, section, value, key):
    data = {"study": study, "grid": {"dim": 2, "points_per_axis": 32}}
    if study not in ("consistency", "ehrling"):  # the studies that read no interface
        data["interface"] = {"radius0": 1.0, "delta0": 0.8}
    data[section] = value
    manifest = _write_manifest(tmp_path, data)
    assert main([study, "--manifest", manifest, "--out", str(tmp_path / "out")]) == 2
    assert key in _one_error_line(capsys)


def test_spectral_floor_rejects_unresolved_interface(tmp_path, capsys):
    # the interface-mode start needs a resolved interface: eps >= 1.5 h
    manifest = _write_manifest(tmp_path, {
        "study": "spectral-floor", "grid": {"dim": 2, "points_per_axis": 32},
        "interface": {"radius0": 1.0, "delta0": 0.8},
        "params": {"epsilons": [0.5, 0.1]}})
    out = tmp_path / "out"
    assert main(["spectral-floor", "--manifest", manifest, "--out", str(out)]) == 2
    err = _one_error_line(capsys)
    assert "epsilon 0.1 unresolved" in err and "spacing 0.1963" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("study,params", [
    ("spectral-floor", {"epsilons": []}),
    ("mcf", {"epsilons": []}),
    ("ehrling", {"r_values": [1.0], "trials": 0}),
])
def test_empty_study_exits_2(tmp_path, capsys, study, params):
    # a check that runs nothing reports nothing, rather than a pass
    data = {"study": study, "grid": {"dim": 2, "points_per_axis": 32}, "params": params}
    if study != "ehrling":  # ehrling reads no interface
        data["interface"] = {"radius0": 1.0, "delta0": 0.8}
    manifest = _write_manifest(tmp_path, data)
    out = tmp_path / "out"
    assert main([study, "--manifest", manifest, "--out", str(out)]) == 2
    _one_error_line(capsys)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("tol", [-1.0, 0.0])
def test_spectral_floor_rejects_nonpositive_tol(tmp_path, capsys, tol):
    # a tolerance no residual can meet would run every outer iteration
    manifest = _write_manifest(tmp_path, {
        "study": "spectral-floor", "grid": {"dim": 2, "points_per_axis": 32},
        "interface": {"radius0": 1.0, "delta0": 0.8},
        "params": {"epsilons": [0.5], "tol": tol}})
    out = tmp_path / "out"
    assert main(["spectral-floor", "--manifest", manifest, "--out", str(out)]) == 2
    assert f"VerifyError: tol must be at least 1e-14, got {tol}" in _one_error_line(capsys)
    assert list(out.iterdir()) == []


def test_simulate_blow_up_exits_2_with_partial_record(tmp_path, capsys, monkeypatch):
    # start past the trust region 10 r0: the first step blows up
    monkeypatch.setattr("nlac.cli.approximate_solution",
                        lambda grid, *args: Field(grid, np.full(grid.shape, 9.99)))
    manifest = _write_manifest(tmp_path, {
        "study": "simulate",
        "grid": {"dim": 2, "points_per_axis": 32},
        "interface": {"radius0": 1.0},
        "solver": {"epsilon": 0.05, "dt": 1e-4, "t_end": 1e-3},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--manifest", manifest, "--out", str(out)]) == 2
    assert "BlowUpError" in _one_error_line(capsys)
    lines = (out / "run.csv").read_text().strip().split("\n")
    assert lines[0] == "t,energy,sup_norm,h0,h1,h2,h3"
    assert len(lines) == 2 and float(lines[1].split(",")[2]) == 9.99  # the t = 0 log
    assert not (out / "final.nlac").exists()


def test_manifest_study_must_name_subcommand(tmp_path, capsys):
    # an ehrling manifest with consistency params must not run as consistency
    manifest = _write_manifest(tmp_path, {
        "study": "ehrling", "grid": {"dim": 2, "points_per_axis": 32},
        "params": {"etas": [0.5, 0.4, 0.3, 0.25]}})
    out = tmp_path / "out"
    assert main(["consistency", "--manifest", manifest, "--out", str(out)]) == 2
    err = _one_error_line(capsys)
    assert "'ehrling'" in err and "'consistency'" in err
    assert not out.exists()


@pytest.mark.parametrize("study,params", [
    ("consistency", {"etas": [0.5, 0.5, 0.5, 0.5]}),
    ("compare-local", {"etas": [1e-4, 5e-5, 5e-5, 2.5e-5]}),
    ("ehrling", {"r_values": [1, 2, 2.0]}),
    ("spectral-floor", {"epsilons": [0.5, 0.4, 0.5]}),
    ("mcf", {"epsilons": [0.5, 0.5]}),
])
def test_repeated_study_parameter_exits_2(tmp_path, capsys, study, params):
    # a repeat runs one point twice: a rate fit to it, or an overwritten entry
    data = {"study": study, "grid": {"dim": 2, "points_per_axis": 32}, "params": params}
    if study in ("spectral-floor", "compare-local", "mcf"):  # they read an interface
        data["interface"] = {"radius0": 1.0, "delta0": 0.8}
    if study == "compare-local":  # the one of these that reads epsilon, dt and t_end
        data["solver"] = {"epsilon": 0.5, "dt": 1e-3, "t_end": 0.01}
    manifest = _write_manifest(tmp_path, data)
    out = tmp_path / "out"
    assert main([study, "--manifest", manifest, "--out", str(out)]) == 2
    key = next(iter(params))
    assert f"params.{key} must be a list of distinct numbers" in _one_error_line(capsys)
    assert not out.exists()


def test_run_path_leaves_scipy_integrate_unimported(tmp_path):
    # the ODE solver serves only custom-well profiles, so neither start-up nor
    # a kernel study, whose symbol is one Gauss-Jacobi rule, imports it
    manifest = _write_manifest(tmp_path, {
        "study": "simulate", "grid": {"dim": 2, "points_per_axis": 16},
        "solver": {"epsilon": 0.1, "dt": 1e-3, "t_end": 0.01}})
    code = ("import sys, nlac.cli, nlac.io; nlac.io.load_manifest(sys.argv[1]); "
            "print('scipy.integrate' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, manifest], capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
    manifest = _consistency_manifest(tmp_path, {"etas": [0.5, 0.4, 0.3, 0.25]})
    code = ("import sys, nlac.cli; code = nlac.cli.main(sys.argv[1:]); assert code == 0, code; "
            "print('scipy.special' in sys.modules, 'scipy.integrate' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, "consistency", "--manifest", manifest,
                             "--out", str(tmp_path / "out")],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "True False"


@pytest.mark.parametrize("study,sections", [
    ("simulate", {"grid": {"dim": 2, "points_per_axis": 16},
                  "solver": {"epsilon": 0.5, "dt": 1e-3, "t_end": 0.005}}),
    ("spectral-floor", {"grid": {"dim": 2, "points_per_axis": 64},
                        "interface": {"radius0": 0.5, "delta0": 1.3},
                        "params": {"epsilons": [0.16], "tol": 1e-6}}),
    ("mcf", {"grid": {"dim": 2, "points_per_axis": 64},
             "interface": {"radius0": 0.5, "delta0": 1.3},
             "params": {"epsilons": [0.16], "dts": [1e-3], "t_end": 0.01,
                        "diagnostic_stride": 5}}),
])
def test_kernel_free_study_imports_no_scipy(tmp_path, study, sections):
    # the local operator needs only the numpy.fft transform pair; scipy loads
    # where a kernel spec or symbol table is built, and nowhere else (the
    # quartic's c_theta, which the mcf radius reads, included)
    manifest = _write_manifest(tmp_path, {"study": study, **sections})
    code = ("import sys, nlac.cli; code = nlac.cli.main(sys.argv[1:]); assert code == 0, code; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code, study, "--manifest", manifest,
                             "--out", str(tmp_path / "out")],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_kernel_study_manifest_imports_scipy_special(tmp_path):
    manifest = _consistency_manifest(tmp_path, {"etas": [0.5, 0.4, 0.3, 0.25]})
    code = ("import sys, nlac.io; nlac.io.load_manifest(sys.argv[1]); "
            "print('scipy.special' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, manifest], capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "True"


def test_unknown_eta_rule_exits_2_before_loading_scipy(tmp_path):
    # the rule is checked while the manifest is parsed, before the kernel
    # spec's normalization loads scipy
    manifest = _write_manifest(tmp_path, {
        "study": "mcf", "grid": {"dim": 2, "points_per_axis": 64}, "kernel": {},
        "interface": {"radius0": 0.5, "delta0": 1.3},
        "params": {"epsilons": [0.16], "eta_rule": "bogus"}})
    code = ("import sys, nlac.cli; code = nlac.cli.main(sys.argv[1:]); "
            "print(code, 'scipy.special' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, "mcf", "--manifest", manifest,
                             "--out", str(tmp_path / "out")],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "2 False"
    assert result.stderr.splitlines() == [
        "error: ManifestError: params.eta_rule must be \"zero\", \"pow4\" or \"custom\", "
        "got 'bogus'"]


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_every_study_has_a_handler_of_mani_and_out(study):
    handler = getattr(nlac.cli, "_cmd_" + study.replace("-", "_"))
    assert list(inspect.signature(handler).parameters) == ["mani", "out"]


def _subcommands_taking(flag):
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name for name, p in sub.choices.items()
            if any(flag in a.option_strings for a in p._actions)}


def test_manifest_subcommands_are_the_schema_studies():
    assert _subcommands_taking("--manifest") == set(STUDIES)


def test_seed_flag_only_where_a_seed_is_read(tmp_path, capsys):
    # --seed would be ignored by a study that draws nothing at random
    assert _subcommands_taking("--seed") == {"simulate", "ehrling"}
    manifest = _consistency_manifest(tmp_path, {"etas": [0.5, 0.4, 0.3, 0.25]})
    assert main(["consistency", "--manifest", manifest, "--out", str(tmp_path / "out"),
                 "--seed", "5"]) == 2
    assert "--seed" in _one_error_line(capsys)
    # simulate draws its start from the seed only without an interface
    manifest = _write_manifest(tmp_path, {
        "study": "simulate", "grid": {"dim": 2, "points_per_axis": 32},
        "interface": {"radius0": 1.0, "delta0": 0.8},
        "solver": {"epsilon": 0.5, "dt": 1e-3, "t_end": 0.01}})
    assert main(["simulate", "--manifest", manifest, "--out", str(tmp_path / "out"),
                 "--seed", "99"]) == 2
    assert "--seed: simulate reads no seed with an interface section" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("study,section,value", [
    # epsilon ** 2 in the stability bound dt_max
    ("simulate", "solver", {"epsilon": 1e200, "dt": 1e-3, "t_end": 1e-2,
                            "stabilizer": 0.0}),
    # eps ** eta_exponent in the coupling eta
    ("mcf", "params", {"epsilons": [0.1], "eta_rule": "custom",
                       "eta_exponent": -1e200}),
])
def test_float_overflow_exits_2(tmp_path, capsys, study, section, value):
    manifest = _write_manifest(tmp_path, {
        "study": study, "grid": {"dim": 2, "points_per_axis": 128},
        "interface": {"radius0": 1.0, "delta0": 0.8}, section: value})
    assert main([study, "--manifest", manifest, "--out", str(tmp_path / "out")]) == 2
    assert "OverflowError" in _one_error_line(capsys)


@pytest.mark.parametrize("study,params", [
    ("spectral-floor", {"epsilons": [0.5]}),
    ("compare-local", {"etas": [1e-4, 5e-5]}),
    ("mcf", {"epsilons": [0.5]}),
])
def test_missing_interface_exits_2(tmp_path, capsys, study, params):
    manifest = _write_manifest(tmp_path, {
        "study": study, "grid": {"dim": 2, "points_per_axis": 32},
        "solver": {"epsilon": 0.1, "dt": 1e-3, "t_end": 0.02}, "params": params})
    assert main([study, "--manifest", manifest, "--out", str(tmp_path / "out")]) == 2
    err = _one_error_line(capsys)
    assert study in err and "interface" in err


@pytest.mark.parametrize("key", ["epsilon", "dt", "t_end"])
@pytest.mark.parametrize("study,params", [
    ("simulate", {}),
    ("compare-local", {"etas": [1e-4, 5e-5]}),
])
def test_missing_solver_key_exits_2(tmp_path, capsys, study, params, key):
    solver = {"epsilon": 0.1, "dt": 1e-3, "t_end": 0.02}
    del solver[key]
    manifest = _write_manifest(tmp_path, {
        "study": study, "grid": {"dim": 2, "points_per_axis": 32},
        "interface": {"radius0": 1.0, "delta0": 0.8}, "solver": solver,
        "params": params})
    assert main([study, "--manifest", manifest, "--out", str(tmp_path / "out")]) == 2
    assert f"solver.{key} must be a number, got None" in _one_error_line(capsys)


@pytest.mark.parametrize("study,sections,error", [
    # mcf reads no solver key
    ("mcf", {"grid": {"dim": 2, "points_per_axis": 128},
             "solver": {"epsilon": 0.3, "dt": 0.5, "t_end": 9.0,
                        "diagnostic_stride": 7, "dealias": True},
             "interface": {"radius0": 1.0, "delta0": 0.8},
             "params": {"epsilons": [0.1], "dts": [1e-3], "t_end": 0.01}},
     "unknown key(s) in solver: ['dealias', 'diagnostic_stride', 'dt', 'epsilon', 't_end']"),
    ("consistency", {"solver": {"epsilon": 0.1, "dt": 1e-3, "t_end": 0.01},
                     "interface": {"radius0": 1.0, "delta0": 0.8},
                     "params": {"etas": [0.5, 0.4, 0.3, 0.25]}},
     "consistency reads no interface section"),
    ("ehrling", {"interface": {"radius0": 1.0}, "params": {"r_values": [1.0], "trials": 2}},
     "ehrling reads no interface section"),
    ("spectral-floor", {"solver": {"stabilizer": 2.0},
                        "interface": {"radius0": 1.0, "delta0": 0.8},
                        "params": {"epsilons": [0.5]}},
     "unknown key(s) in solver: ['stabilizer']"),
    ("consistency", {"potential": {"kind": "custom",
                                   "coefficients": [0.25, 0, -0.375, 0, 0, 0, 0.125]},
                     "seed": 5, "params": {"etas": [0.5, 0.4, 0.3, 0.25]}},
     "consistency reads no potential section"),
    ("spectral-floor", {"kernel": {"beta": 1.0},
                        "interface": {"radius0": 1.0, "delta0": 0.8},
                        "params": {"epsilons": [0.5]}},
     "spectral-floor reads no kernel section"),
    # the local operator builds no symbol table, so it reads no kernel
    ("simulate", {"kernel": {"beta": 1.0},
                  "solver": {"epsilon": 0.5, "dt": 1e-3, "t_end": 0.01}},
     "simulate reads no kernel section with params.eta null"),
    ("simulate", {"kernel": {"beta": 1.0}, "params": {"eta": None},
                  "solver": {"epsilon": 0.5, "dt": 1e-3, "t_end": 0.01}},
     "simulate reads no kernel section with params.eta null"),
    ("mcf", {"kernel": {"beta": 1.0}, "interface": {"radius0": 1.0, "delta0": 0.8},
             "params": {"epsilons": [0.5], "eta_rule": "zero"}},
     'mcf reads no kernel section with params.eta_rule "zero"'),
    # eta_exponent sets the coupling of eta_rule "custom" only
    ("mcf", {"interface": {"radius0": 1.0, "delta0": 0.8},
             "params": {"epsilons": [0.5], "eta_rule": "pow4", "eta_exponent": 2.0}},
     'mcf reads no params.eta_exponent with params.eta_rule "pow4"'),
    ("mcf", {"interface": {"radius0": 1.0, "delta0": 0.8},
             "params": {"epsilons": [0.5], "eta_exponent": 4.0}},
     'mcf reads no params.eta_exponent with params.eta_rule "zero"'),
    # an interface gives simulate its start, so it draws nothing from the seed
    ("simulate", {"seed": 5, "interface": {"radius0": 1.0, "delta0": 0.8},
                  "solver": {"epsilon": 0.5, "dt": 1e-3, "t_end": 0.01}},
     "simulate reads no seed with an interface section"),
    # the stabilizer slowed mcf's interface by 1/(1 + s dt/eps^2), so mcf runs without one
    ("mcf", {"solver": {"stabilizer": 2.0}, "interface": {"radius0": 1.0, "delta0": 0.8},
             "params": {"epsilons": [0.5]}},
     "unknown key(s) in solver: ['stabilizer']"),
])
def test_ignored_section_exits_2(tmp_path, capsys, study, sections, error):
    # a section or key a study does not read would misreport what was checked
    manifest = _write_manifest(tmp_path, {
        "study": study, "grid": {"dim": 2, "points_per_axis": 32}, **sections})
    out = tmp_path / "out"
    assert main([study, "--manifest", manifest, "--out", str(out)]) == 2
    assert error in _one_error_line(capsys)
    assert not out.exists()
