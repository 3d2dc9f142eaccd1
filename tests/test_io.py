import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlac.grid import Field, make_grid
from nlac.io import (JSON_TYPES, PARAMS, ManifestError, SnapshotError, load_manifest,
                     parse_manifest, read_snapshot, write_report,
                     write_snapshot)
from nlac.kernel import MollifierSpec


def _minimal(**extra):
    data = {"study": "simulate", "grid": {"dim": 2, "points_per_axis": 16}}
    data.update(extra)
    return data


def test_minimal_manifest_defaults(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_minimal()))
    mani = load_manifest(path)
    assert mani.grid.points_per_axis == 16
    assert mani.kernel.beta == 1.5  # per-dim default
    assert mani.kernel == MollifierSpec(dim=2)  # born normalized
    assert mani.potential.kind == "quartic"
    assert mani.solver["stabilizer"] == 2.0
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
        parse_manifest(_minimal(kernel={"beta": 2.5}))


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
    ({"solver": {"stabilizer": None}}, "stabilizer must be a number"),
    ({"solver": {"diagnostic_stride": 2.0}}, "diagnostic_stride must be an integer"),
    ({"solver": {"dealias": 1}}, "dealias must be true or false"),
    # json reads the non-finite literals, so they come in as raw JSON text
    (json.loads('{"solver": {"epsilon": NaN}}'), "solver.epsilon must be a number"),
    (json.loads('{"interface": {"radius0": Infinity}}'), "interface.radius0 must be a number"),
    (json.loads('{"potential": {"coefficients": [0.25, -Infinity]}}'), "coefficients must be a list"),
    # the quartic well has its own coefficients; given ones would be dropped
    ({"potential": {"coefficients": [0.25, 0, -0.5, 0, 0.25]}}, "potential.coefficients"),
    # json reads integers of any size; past the float range they overflow
    ({"solver": {"epsilon": 10 ** 400}}, "solver.epsilon must be a number"),
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
    study = data.draw(st.sampled_from(sorted(PARAMS)))
    schema = PARAMS[study]
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
