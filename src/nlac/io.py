"""Manifests, reports, and the binary field snapshot format.

Manifests are strict JSON: unknown keys and duplicate keys are rejected so a
typo cannot silently fall back to a default.  Snapshots are raw float64 with
a small fixed header (magic 'NLAC', dim, points per axis, flag byte).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid, make_grid
from .kernel import DEFAULT_BETA, DEFAULT_BUMP_RADIUS, MollifierSpec, normalize
from .potential import PotentialSpec
from .geometry import InterfaceSpec

FORMAT_VERSION = 1
SNAPSHOT_MAGIC = b"NLAC"

STUDIES = ("simulate", "consistency", "ehrling", "spectral-floor",
           "compare-local", "mcf", "profile", "symbol")


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


def _take(section, allowed: dict, where: str) -> dict:
    """Known keys of an object section, with defaults; reject anything else."""
    section = _section(section, where)
    out = {key: section.pop(key, default) for key, default in allowed.items()}
    if section:
        raise ManifestError(f"unknown key(s) in {where}: {sorted(section)}")
    return out


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ManifestError(f"{where} must be an integer, got {value!r}")
    return value


def parse_manifest(data: dict) -> StudyManifest:
    top = _take(data, {
        "study": None, "grid": None, "kernel": {}, "potential": {},
        "interface": None, "solver": {}, "params": {}, "seed": 0,
    }, "manifest")
    if top["study"] not in STUDIES:
        raise ManifestError(f"study must be one of {STUDIES}, got {top['study']!r}")

    g = _take(top["grid"], {"dim": None, "points_per_axis": None}, "grid")
    grid = make_grid(_integer(g["dim"], "grid.dim"),
                     _integer(g["points_per_axis"], "grid.points_per_axis"))

    k = _take(top["kernel"], {
        "beta": DEFAULT_BETA.get(grid.dim), "bump_radius": DEFAULT_BUMP_RADIUS,
    }, "kernel")
    if k["beta"] is None:
        raise ManifestError(f"no default beta for dim {grid.dim}; set kernel.beta")
    kernel = normalize(MollifierSpec(dim=grid.dim, beta=k["beta"],
                                     bump_radius=k["bump_radius"]))

    p = _take(top["potential"], {"kind": "quartic", "coefficients": ()}, "potential")
    potential = PotentialSpec(kind=p["kind"], coefficients=tuple(p["coefficients"]))

    interface = None
    if top["interface"] is not None:
        i = _take(top["interface"], {
            "radius0": None, "center": (), "delta0": None,
        }, "interface")
        interface = InterfaceSpec(radius0=i["radius0"], center=tuple(i["center"]),
                                  delta0=i["delta0"])

    solver = _take(top["solver"], {
        "epsilon": None, "dt": None, "t_end": None, "stabilizer": 2.0,
        "diagnostic_stride": 1, "dealias": False,
    }, "solver")

    return StudyManifest(study=top["study"], grid=grid, kernel=kernel,
                         potential=potential, interface=interface,
                         solver=solver, params=_section(top["params"], "params"),
                         seed=_integer(top["seed"], "seed"))


def load_manifest(path) -> StudyManifest:
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"parse error in {path}: {exc}") from exc
    return parse_manifest(data)


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
