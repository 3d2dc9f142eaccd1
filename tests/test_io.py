import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlac.grid import Field, make_grid
from nlac.io import (JSON_TYPES, STUDIES, ManifestError, SnapshotError, load_manifest,
                     parse_manifest, read_snapshot, write_report,
                     write_snapshot)
import nlac.io
from nlac.kernel import MollifierSpec
from nlac.solver import SolverConfig


_SOLVER = {"epsilon": 0.1, "dt": 1e-3, "t_end": 0.01}  # the solver keys without a default


def _minimal(study="simulate", **extra):
    # the sections a study requires, which `extra` may replace
    data = {"study": study, "grid": {"dim": 2, "points_per_axis": 16}}
    if study in ("simulate", "compare-local"):
        data["solver"] = dict(_SOLVER)
    if study in ("spectral-floor", "compare-local", "mcf"):
        data["interface"] = {"radius0": 1.0}
    data.update(extra)
    return data


def test_minimal_manifest_defaults(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_minimal(params={"eta": 0.5})))  # eta: reads a kernel
    mani = load_manifest(path)
    assert mani.grid.points_per_axis == 16
    assert mani.kernel.beta == 1.5  # per-dim default
    assert mani.kernel == MollifierSpec(dim=2)  # born normalized
    assert mani.potential.kind == "quartic"
    assert mani.solver["stabilizer"] == 0.0
    assert mani.seed == 0


def test_interface_default_delta0():
    mani = parse_manifest(_minimal(interface={"radius0": 1.0}))
    assert mani.interface.delta0 == pytest.approx(0.6)


def test_unknown_key_rejected():
    with pytest.raises(ManifestError, match="unknown"):
        parse_manifest(_minimal(bogus=1))
    with pytest.raises(ManifestError, match="unknown"):
        parse_manifest(_minimal(grid={"dim": 2, "points_per_axis": 16, "x": 0}))


def test_beta_out_of_range_rejected():
    with pytest.raises(ValueError, match="beta"):
        parse_manifest(_minimal(kernel={"beta": 2.5}, params={"eta": 0.5}))


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"study": "simulate", "study": "mcf", '
                    '"grid": {"dim": 2, "points_per_axis": 16}}')
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def test_parse_error_context(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError, match="parse error"):
        load_manifest(path)


def test_bad_study_rejected():
    with pytest.raises(ManifestError, match="study"):
        parse_manifest({"study": "nope", "grid": {"dim": 2, "points_per_axis": 16}})


def test_snapshot_round_trip(tmp_path):
    g = make_grid(2, 16)
    rng = np.random.default_rng(8)
    f = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "f.nlac"
    write_snapshot(f, path)
    back = read_snapshot(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_snapshot_header_layout(tmp_path):
    g = make_grid(2, 8)
    path = tmp_path / "f.nlac"
    write_snapshot(Field(g, np.zeros(g.shape)), path)
    blob = path.read_bytes()
    assert blob[:4] == b"NLAC"
    assert blob[4] == 2
    assert int.from_bytes(blob[5:9], "little") == 8
    assert blob[9] == 0
    assert len(blob) == 10 + 8 * 64


def test_snapshot_corruption_detected(tmp_path):
    g = make_grid(2, 8)
    path = tmp_path / "f.nlac"
    write_snapshot(Field(g, np.zeros(g.shape)), path)
    blob = bytearray(path.read_bytes())
    bad = tmp_path / "bad.nlac"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(bad)
    bad.write_bytes(bytes(blob[:-8]))
    with pytest.raises(SnapshotError, match="length"):
        read_snapshot(bad)


def test_report_deterministic(tmp_path):
    report = {"study": "x", "table": [[1.0, 2.0]], "slope": 1.0 / 3.0, "passed": True}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report, p1)
    write_report(dict(report), p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["format_version"] == 1
    assert loaded["slope"] == 1.0 / 3.0  # 17 significant digits survive


@pytest.mark.parametrize("extra,match", [
    ({"kernel": 5}, "kernel must be an object"),
    ({"solver": [0.1]}, "solver must be an object"),
    ({"interface": 1.0}, "interface must be an object"),
    ({"params": "etas"}, "params must be an object"),
    ({"grid": {"dim": 2, "points_per_axis": "8"}}, "points_per_axis must be an integer"),
    ({"grid": {"dim": 2.0, "points_per_axis": 8}}, "dim must be an integer"),
    ({"grid": {"dim": True, "points_per_axis": 8}}, "dim must be an integer"),
    ({"seed": "3"}, "seed must be an integer"),
    ({"kernel": {"beta": "1.5"}}, "kernel.beta must be a number"),
    ({"interface": {}}, "interface.radius0 must be a number, got None"),
    ({"interface": {"radius0": 1.0, "delta0": "0.5"}}, "delta0 must be a number or null"),
    ({"potential": {"kind": "custom", "coefficients": [0.25, "0"]}}, "coefficients must be a list"),
    ({"solver": {**_SOLVER, "stabilizer": None}}, "stabilizer must be a number"),
    ({"solver": {**_SOLVER, "diagnostic_stride": 2.0}}, "diagnostic_stride must be an integer"),
    # dealias is no solver key: the stepper keeps every mode
    ({"solver": {**_SOLVER, "dealias": False}}, r"key\(s\) in solver: \['dealias'\]$"),
    # json reads the non-finite literals, so they come in as raw JSON text
    (json.loads('{"solver": {"epsilon": NaN}}'), "solver.epsilon must be a number"),
    (json.loads('{"interface": {"radius0": Infinity}}'), "interface.radius0 must be a number"),
    (json.loads('{"potential": {"coefficients": [0.25, -Infinity]}}'), "coefficients must be a list"),
    # the quartic well has its own coefficients; given ones would be dropped
    ({"potential": {"coefficients": [0.25, 0, -0.5, 0, 0.25]}}, "potential.coefficients"),
    # json reads integers of any size; past the float range they overflow
    ({"solver": {"epsilon": 10 ** 400}}, "solver.epsilon must be a number"),
    # a study name that is no string cannot be looked up
    ({"study": []}, r"^manifest.study must be a string, got \[\]$"),
    ({"study": {}}, r"^manifest.study must be a string, got \{\}$"),
])
def test_mistyped_manifest_rejected(extra, match):
    with pytest.raises(ManifestError, match=match):
        parse_manifest(_minimal(**extra))


@pytest.mark.parametrize("study", ["symbol", "profile", None])
def test_non_manifest_study_rejected(study):
    # profile and symbol take flags, not manifests
    with pytest.raises(ManifestError, match="study must be one of"):
        parse_manifest(_minimal(study=study))


def test_params_defaults_filled():
    mani = parse_manifest(_minimal(study="mcf", params={"epsilons": [0.1]}))
    assert mani.params == {"epsilons": [0.1], "dts": None, "eta_rule": "zero",
                           "t_end": 0.2, "radius_tol": None, "eta_exponent": 4.0,
                           "diagnostic_stride": 250}
    assert parse_manifest(_minimal()).params == {"eta": None}


@pytest.mark.parametrize("study,params,match", [
    ("consistency", {}, "params.etas must be a list of distinct numbers, got None"),
    ("ehrling", {"trials": 5}, "params.r_values must be a list of distinct numbers, got None"),
    ("mcf", {"epsilons": [0.1], "eta_rule": 4}, "params.eta_rule must be a string"),
    ("mcf", {"epsilons": [0.1], "dts": [True]}, "params.dts must be a list of numbers or null"),
    ("simulate", {"etas": [0.5]}, r"unknown key\(s\) in params: \['etas'\]"),
])
def test_params_checked_against_study_schema(study, params, match):
    with pytest.raises(ManifestError, match=match):
        parse_manifest(_minimal(study=study, params=params))


def test_study_must_match_expected():
    data = _minimal(study="ehrling", params={"r_values": [1.0]})
    assert parse_manifest(data, "ehrling").study == "ehrling"
    with pytest.raises(ManifestError, match="'ehrling', not 'consistency'"):
        parse_manifest(data, "consistency")


# json reads integers of any size: draw some past the float range
_JSON_INTS = st.integers() | st.integers(min_value=2 ** 1024)
_JSON_SCALARS = (st.none() | st.booleans() | _JSON_INTS | st.floats()
                 | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_params_fuzz(data):
    # any JSON for params: a manifest whose params pass their types, or a
    # ManifestError, never another exception
    study = data.draw(st.sampled_from(sorted(STUDIES)))
    schema = STUDIES[study]["params"]
    key = st.sampled_from(sorted(schema)) | st.text(max_size=6)
    value = _JSON_VALUES | st.lists(_JSON_INTS | st.floats(), max_size=3)
    params = data.draw(st.dictionaries(key, value, max_size=4) | _JSON_VALUES)
    try:
        mani = parse_manifest(_minimal(study=study, params=params))
    except ManifestError:
        return
    assert set(mani.params) == set(schema)
    for key, (kind, default) in schema.items():
        assert JSON_TYPES[kind](mani.params[key])
        assert mani.params[key] == params.get(key, default)


_ALL_SOLVER_KEYS = sorted({key for schema in STUDIES.values() for key in schema["solver"]})
# the params without a default, each given one valid value
_REQUIRED_PARAMS = {"simulate": {}, "consistency": {"etas": [0.5]},
                    "ehrling": {"r_values": [1.0]}, "spectral-floor": {"epsilons": [0.5]},
                    "compare-local": {"etas": [0.5]}, "mcf": {"epsilons": [0.5]}}
_VALID = {"a number": st.floats(0.001, 1.0), "an integer": st.integers(1, 9)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sections_fuzz(data):
    # any solver and interface sections, whatever the study reads: a manifest
    # holding exactly what its study reads, or a ValueError, never another exception
    study = data.draw(st.sampled_from(sorted(STUDIES)))
    schema = STUDIES[study]
    valid = st.fixed_dictionaries(
        {key: _VALID[kind] for key, (kind, default) in schema["solver"].items() if default is None},
        optional={key: _VALID[kind] for key, (kind, default) in schema["solver"].items()
                  if default is not None})
    # junk keys: solver keys of other studies, or of this one with any value, or typos
    junk = st.dictionaries(st.sampled_from(_ALL_SOLVER_KEYS) | st.text(max_size=6),
                           _JSON_VALUES, min_size=1, max_size=2)
    solver = {"absent": st.none(), "valid": valid,
              "junk": st.builds(lambda v, j: {**v, **j}, valid, junk)}
    interface = {"absent": st.none(), "valid": st.just({"radius0": 1.0, "delta0": 0.8}),
                 "junk": _JSON_VALUES}
    sections = {name: data.draw(choices[data.draw(st.sampled_from(sorted(choices)))])
                for name, choices in (("solver", solver), ("interface", interface))}
    manifest = {"study": study, "grid": {"dim": 2, "points_per_axis": 16},
                "params": _REQUIRED_PARAMS[study],
                **{name: section for name, section in sections.items() if section is not None}}
    try:
        mani = parse_manifest(manifest)
    except ValueError:
        return
    assert set(mani.solver) == set(schema["solver"])
    for key, (kind, default) in schema["solver"].items():
        assert JSON_TYPES[kind](mani.solver[key])
        assert mani.solver[key] == (sections["solver"] or {}).get(key, default)
    reads_interface = schema["interface"] == "required" or (
        schema["interface"] == "optional" and sections["interface"] is not None)
    assert (mani.interface is not None) == reads_interface


# the optional sections each study reads; any other is rejected
_READS = {"simulate": {"kernel", "potential", "seed"}, "consistency": {"kernel"},
          "ehrling": {"kernel", "seed"}, "spectral-floor": {"potential"},
          "compare-local": {"kernel", "potential"}, "mcf": {"kernel", "potential"}}


# params under which a study builds a symbol table, where the required ones do not
_KERNEL_PARAMS = {**_REQUIRED_PARAMS, "simulate": {"eta": 0.5},
                  "mcf": {"epsilons": [0.5], "eta_rule": "pow4"}}


@pytest.mark.parametrize("study", sorted(_READS))
def test_unread_optional_section_rejected(study):
    # a kernel, potential or seed the study never reads would claim an input
    # it did not use; one it reads parses, even when it only restates a default
    assert set(STUDIES[study]["reads"]) == _READS[study]
    for section, value in (("kernel", {}), ("potential", {"kind": "quartic"}),
                           ("seed", 5)):
        data = _minimal(study=study, params=_KERNEL_PARAMS[study], **{section: value})
        if section in _READS[study]:
            parse_manifest(data)
        else:
            with pytest.raises(ManifestError, match=f"^{study} reads no {section} section$"):
                parse_manifest(data)


@pytest.mark.parametrize("study,params,reads_kernel", [
    ("simulate", {}, False), ("simulate", {"eta": None}, False),
    ("simulate", {"eta": 0.5}, True), ("consistency", {"etas": [0.5]}, True),
    ("ehrling", {"r_values": [1.0]}, True), ("spectral-floor", {"epsilons": [0.5]}, False),
    ("compare-local", {"etas": [0.5]}, True), ("mcf", {"epsilons": [0.5]}, False),
    ("mcf", {"epsilons": [0.5], "eta_rule": "zero"}, False),
    ("mcf", {"epsilons": [0.5], "eta_rule": "pow4"}, True),
    ("mcf", {"epsilons": [0.5], "eta_rule": "custom"}, True)])
def test_kernel_spec_only_where_a_symbol_table_is_built(study, params, reads_kernel):
    # a kernel spec costs its normalization, which loads scipy; a study builds
    # one only where it tabulates a symbol
    mani = parse_manifest(_minimal(study=study, params=params))
    assert (mani.kernel == MollifierSpec(dim=2)) if reads_kernel else mani.kernel is None


@pytest.mark.parametrize("study,extra,seed", [
    ("simulate", {}, 0), ("simulate", {"seed": 5}, 5),
    ("simulate", {"interface": {"radius0": 1.0}}, None),
    ("ehrling", {"params": {"r_values": [1.0]}, "seed": 5}, 5),
    ("consistency", {"params": {"etas": [0.5]}}, None)])
def test_seed_only_where_a_random_start_is_drawn(study, extra, seed):
    # simulate draws its start from the seed only without an interface
    assert parse_manifest(_minimal(study=study, **extra)).seed == seed


def test_solver_keys_are_the_settable_config_fields():
    # every SolverConfig option a manifest can set is a solver key, and no key
    # outlives its option; grid, potential and table come from other sections
    settable = {f.name for f in dataclasses.fields(SolverConfig)} - {"grid", "potential",
                                                                      "table"}
    assert set(nlac.io._SOLVER) == settable


def _readme_table(lines, header):
    """The cells of each row of the markdown table under `header`, backticks dropped."""
    start = lines.index(header) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip().strip("`") for cell in line.strip().strip("|").split("|")])
    return rows


def test_readme_tables_match_schema():
    # the README's per-study tables list exactly what each study reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    documented, study = set(), None
    for cells in _readme_table(readme, "| study | param | JSON type | default |"):
        study = cells[0] or study  # a blank study cell continues the row above
        documented.add((study, "params", cells[1]))
    for study, solver, interface, reads in _readme_table(
            readme, "| study | `solver` keys | `interface` | reads |"):
        for section, keys in (("solver", solver), ("reads", reads)):
            for key in keys.split(",") if keys != "none" else ():
                # a read with a condition: `kernel` unless `<param>` is `<JSON value>`,
                # or `seed` without an `interface`
                key, _, unless = key.partition(" unless ")
                key, _, without = key.partition(" without ")
                documented.add((study, section, key.strip(" `")))
                if unless:
                    param, value = (part.strip(" `") for part in unless.split(" is "))
                    documented.add((study, "kernel_unless", (param, json.loads(value))))
                if without:
                    documented.add((study, key.strip(" `") + " without",
                                    without.strip(" `").removeprefix("an `")))
        documented.add((study, "interface", interface))
    expected = {(study, section, key) for study, schema in STUDIES.items()
                for section in ("params", "solver", "reads") for key in schema[section]}
    expected |= {(study, "interface", schema["interface"])
                 for study, schema in STUDIES.items()}
    expected |= {(study, "kernel_unless", schema["kernel_unless"])
                 for study, schema in STUDIES.items() if "kernel_unless" in schema}
    # a study reads its seed only where no interface gives it a start
    expected |= {(study, "seed without", "interface") for study, schema in STUDIES.items()
                 if "seed" in schema["reads"] and schema["interface"] != "rejected"}
    assert documented == expected
