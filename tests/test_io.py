import json
import math

import numpy as np
import pytest

from nlac.grid import Field, make_grid
from nlac.io import (ManifestError, SnapshotError, load_manifest,
                     parse_manifest, read_snapshot, write_report,
                     write_snapshot)


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
    assert mani.kernel.is_normalized
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
])
def test_mistyped_manifest_rejected(extra, match):
    with pytest.raises(ManifestError, match=match):
        parse_manifest(_minimal(**extra))
