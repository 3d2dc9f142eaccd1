"""Manifests, reports, and the binary field snapshot format.

Manifests are strict JSON: unknown keys and duplicate keys are rejected so a
typo cannot silently fall back to a default.  Snapshots are raw float64 with
a small fixed header (magic 'NLAC', dim, points per axis, flag byte).
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid, make_grid
from .kernel import DEFAULT_BUMP_RADIUS, MollifierSpec
from .potential import PotentialSpec
from .geometry import InterfaceSpec

FORMAT_VERSION = 1
SNAPSHOT_MAGIC = b"NLAC"


class ManifestError(ValueError):
    pass


class SnapshotError(ValueError):
    pass


@dataclass(frozen=True)
class StudyManifest:
    study: str
    grid: TorusGrid
    kernel: MollifierSpec
    potential: PotentialSpec
    interface: InterfaceSpec | None
    solver: dict
    params: dict
    seed: int


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ManifestError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ManifestError(f"{where} must be an object, got {type(value).__name__}")
    return dict(value)


def _is_number(value) -> bool:
    """A JSON number within the finite float range; json reads NaN, Infinity
    and integers of any size, which no field accepts."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


#: checks of the JSON type of a manifest value, by the name errors print
JSON_TYPES = {
    "a number": _is_number,
    "a number or null": lambda v: v is None or _is_number(v),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a list of numbers": lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
    "a list of numbers or null": lambda v: v is None or JSON_TYPES["a list of numbers"](v),
    # the parameters a study sweeps: a repeat would run one point twice
    "a list of distinct numbers": lambda v: (JSON_TYPES["a list of numbers"](v)
                                             and len(set(v)) == len(v)),
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
}

#: the params of each study, the subcommand that runs it: key -> (JSON type,
#: default).  A None default on a type that rejects null makes a key required.
PARAMS = {
    "simulate": {"eta": ("a number or null", None)},
    "consistency": {"etas": ("a list of distinct numbers", None)},
    "ehrling": {"r_values": ("a list of distinct numbers", None),
                "trials": ("an integer", 100)},
    "spectral-floor": {"epsilons": ("a list of distinct numbers", None),
                       "tol": ("a number", 1e-6)},
    "compare-local": {"etas": ("a list of distinct numbers", None)},
    "mcf": {"epsilons": ("a list of distinct numbers", None),
            "dts": ("a list of numbers or null", None),
            "eta_rule": ("a string", "zero"),
            "t_end": ("a number", 0.2),
            "radius_tol": ("a number or null", None),
            "eta_exponent": ("a number", 4.0),
            "diagnostic_stride": ("an integer", 250)},
}


def _take(section, allowed: dict, where: str, kinds: dict) -> dict:
    """Known keys of an object section, with defaults; reject anything else,
    and any value whose JSON type is not the one `kinds` names for its key."""
    section = _section(section, where)
    out = {key: section.pop(key, default) for key, default in allowed.items()}
    if section:
        raise ManifestError(f"unknown key(s) in {where}: {sorted(section)}")
    for key, kind in kinds.items():
        if not JSON_TYPES[kind](out[key]):
            raise ManifestError(f"{where}.{key} must be {kind}, got {out[key]!r}")
    return out


def parse_manifest(data: dict, study: str | None = None) -> StudyManifest:
    """Check `data` against the sections and its study's PARAMS; `study`, if
    given, is the one the manifest must name."""
    top = _take(data, {
        "study": None, "grid": None, "kernel": {}, "potential": {},
        "interface": None, "solver": {}, "params": {}, "seed": 0,
    }, "manifest", {"seed": "an integer"})
    if top["study"] not in PARAMS:
        raise ManifestError(f"study must be one of {tuple(PARAMS)}, got {top['study']!r}")
    if study is not None and top["study"] != study:
        raise ManifestError(f"manifest names study {top['study']!r}, not {study!r}")

    g = _take(top["grid"], {"dim": None, "points_per_axis": None}, "grid",
              {"dim": "an integer", "points_per_axis": "an integer"})
    grid = make_grid(g["dim"], g["points_per_axis"])

    k = _take(top["kernel"], {"beta": None, "bump_radius": DEFAULT_BUMP_RADIUS}, "kernel",
              {"beta": "a number or null", "bump_radius": "a number"})
    kernel = MollifierSpec(dim=grid.dim, beta=k["beta"], bump_radius=k["bump_radius"])

    p = _take(top["potential"], {"kind": "quartic", "coefficients": ()}, "potential",
              {"coefficients": "a list of numbers"})
    if p["kind"] == "quartic" and p["coefficients"]:
        raise ManifestError("potential.coefficients set for kind 'quartic', which has "
                            "fixed coefficients; set potential.kind to 'custom'")
    potential = PotentialSpec(kind=p["kind"], coefficients=tuple(p["coefficients"]))

    interface = None
    if top["interface"] is not None:
        i = _take(top["interface"], {
            "radius0": None, "center": (), "delta0": None,
        }, "interface", {"radius0": "a number", "center": "a list of numbers",
                         "delta0": "a number or null"})
        interface = InterfaceSpec(radius0=i["radius0"], center=tuple(i["center"]),
                                  delta0=i["delta0"])

    solver = _take(top["solver"], {
        "epsilon": None, "dt": None, "t_end": None, "stabilizer": 2.0,
        "diagnostic_stride": 1, "dealias": False,
    }, "solver", {"epsilon": "a number or null", "dt": "a number or null",
                  "t_end": "a number or null", "stabilizer": "a number",
                  "diagnostic_stride": "an integer", "dealias": "true or false"})

    schema = PARAMS[top["study"]]
    params = _take(top["params"], {key: default for key, (_, default) in schema.items()},
                   "params", {key: kind for key, (kind, _) in schema.items()})

    return StudyManifest(study=top["study"], grid=grid, kernel=kernel,
                         potential=potential, interface=interface,
                         solver=solver, params=params, seed=top["seed"])


def load_manifest(path, study: str | None = None) -> StudyManifest:
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"parse error in {path}: {exc}") from exc
    return parse_manifest(data, study)


def write_snapshot(field: Field, path) -> None:
    grid = field.grid
    header = SNAPSHOT_MAGIC + struct.pack("<BIB", grid.dim, grid.points_per_axis, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_snapshot(path) -> Field:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad magic {blob[:4]!r}")
    if len(blob) < 10:
        raise SnapshotError("truncated header")
    dim, n, flag = struct.unpack("<BIB", blob[4:10])
    if flag != 0:
        raise SnapshotError(f"unsupported flag {flag}")
    grid = make_grid(dim, n)
    expected = 10 + 8 * grid.num_points
    if len(blob) != expected:
        raise SnapshotError(f"payload length {len(blob)} != expected {expected}")
    values = np.frombuffer(blob[10:], dtype="<f8").reshape(grid.shape)
    return Field(grid, values)


def write_report(report: dict, path) -> None:
    """Deterministic JSON: fixed version header, sorted keys, no float munging."""
    payload = {"format_version": FORMAT_VERSION, **report}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
