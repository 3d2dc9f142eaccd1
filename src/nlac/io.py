"""Manifests, reports, and the binary field snapshot format.

Manifests are strict JSON: unknown keys, duplicate keys and sections a study
does not read are rejected, so a typo cannot silently fall back to a default
and a manifest cannot carry an input its study drops.  Snapshots are raw float64 with
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
    kernel: MollifierSpec | None  # None where the study builds no symbol table
    potential: PotentialSpec
    interface: InterfaceSpec | None
    solver: dict
    params: dict
    seed: int | None  # None where the study draws nothing at random


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
    # the parameters a study sweeps: a repeat would run one point twice, and
    # an empty sweep would check nothing
    "a nonempty list of distinct numbers": lambda v: (JSON_TYPES["a list of numbers"](v)
                                                      and 0 < len(set(v)) == len(v)),
    '"zero", "pow4" or "custom"': lambda v: v in ("zero", "pow4", "custom"),
}

#: the solver keys a study reads: key -> (JSON type, default)
_SOLVER = {"epsilon": ("a number", None), "dt": ("a number", None),
          "t_end": ("a number", None), "stabilizer": ("a number", 0.0),
          "diagnostic_stride": ("an integer", 1)}

#: the optional sections a study may read, besides params, solver and interface
_OPTIONAL = ("kernel", "potential", "seed")

#: what each study, the subcommand that runs it, reads of a manifest: its
#: "params" and "solver" keys -> (JSON type, default), where a None default
#: on a type that rejects null makes a key required, whether an "interface"
#: section is "required", "optional" or "rejected", and which of _OPTIONAL it
#: "reads".  Where a params key has the value in its "kernel_unless", a study
#: builds no symbol table and reads no kernel.  Any other key or section a
#: study would ignore is an error.
STUDIES = {
    "simulate": {"params": {"eta": ("a number or null", None)},
                 "solver": _SOLVER, "interface": "optional", "reads": _OPTIONAL,
                 "kernel_unless": ("eta", None)},
    "consistency": {"params": {"etas": ("a nonempty list of distinct numbers", None)},
                    "solver": {}, "interface": "rejected", "reads": ("kernel",)},
    "ehrling": {"params": {"r_values": ("a nonempty list of distinct numbers", None),
                           "trials": ("an integer", 100)},
                "solver": {}, "interface": "rejected", "reads": ("kernel", "seed")},
    "spectral-floor": {"params": {"epsilons": ("a nonempty list of distinct numbers", None),
                                  "tol": ("a number", 1e-6)},
                       "solver": {}, "interface": "required", "reads": ("potential",)},
    "compare-local": {"params": {"etas": ("a nonempty list of distinct numbers", None)},
                      "solver": _SOLVER, "interface": "required",
                      "reads": ("kernel", "potential")},
    "mcf": {"params": {"epsilons": ("a nonempty list of distinct numbers", None),
                       "dts": ("a list of numbers or null", None),
                       "eta_rule": ('"zero", "pow4" or "custom"', "zero"),
                       "t_end": ("a number", 0.2),
                       "radius_tol": ("a number or null", None),
                       "eta_exponent": ("a number", 4.0),
                       "diagnostic_stride": ("an integer", 250)},
            "solver": {}, "interface": "required",
            "reads": ("kernel", "potential"), "kernel_unless": ("eta_rule", "zero")},
}


def _take(section, schema: dict, where: str) -> dict:
    """Known keys of an object section, key -> (JSON type, default), with
    defaults; reject anything else, and any value not of its key's JSON type.
    A None type leaves the value to the constructor the section feeds."""
    section = _section(section, where)
    out = {key: section.pop(key, default) for key, (_, default) in schema.items()}
    if section:
        raise ManifestError(f"unknown key(s) in {where}: {sorted(section)}")
    for key, (kind, _) in schema.items():
        if kind is not None and not JSON_TYPES[kind](out[key]):
            raise ManifestError(f"{where}.{key} must be {kind}, got {out[key]!r}")
    return out


def parse_manifest(data: dict, study: str | None = None) -> StudyManifest:
    """Check `data` against the sections and what its study reads in STUDIES;
    `study`, if given, is the one the manifest must name."""
    top = _take(data, {
        "study": (None, None), "grid": (None, None), "kernel": (None, {}),
        "potential": (None, {}), "interface": (None, None), "solver": (None, {}),
        "params": (None, {}), "seed": ("an integer", 0),
    }, "manifest")
    # a missing study fails the next check, which names the studies
    if top["study"] is not None and not isinstance(top["study"], str):
        raise ManifestError(f"manifest.study must be a string, got {top['study']!r}")
    if top["study"] not in STUDIES:
        raise ManifestError(f"study must be one of {tuple(STUDIES)}, got {top['study']!r}")
    if study is not None and top["study"] != study:
        raise ManifestError(f"manifest names study {top['study']!r}, not {study!r}")
    schema = STUDIES[top["study"]]
    for name in _OPTIONAL:
        if name in data and name not in schema["reads"]:
            raise ManifestError(f"{top['study']} reads no {name} section")

    g = _take(top["grid"], {"dim": ("an integer", None),
                            "points_per_axis": ("an integer", None)}, "grid")
    grid = make_grid(g["dim"], g["points_per_axis"])
    if grid.dim not in (2, 3):  # the kernel and the interfaces exist in 2D and 3D only
        raise ManifestError(f"grid.dim must be 2 or 3, got {grid.dim}")

    k = _take(top["kernel"], {"beta": ("a number or null", None),
                              "bump_radius": ("a number", DEFAULT_BUMP_RADIUS)}, "kernel")

    p = _take(top["potential"], {"kind": (None, "quartic"),
                                 "coefficients": ("a list of numbers", ())}, "potential")
    if p["kind"] == "quartic" and p["coefficients"]:
        raise ManifestError("potential.coefficients set for kind 'quartic', which has "
                            "fixed coefficients; set potential.kind to 'custom'")
    potential = PotentialSpec(kind=p["kind"], coefficients=tuple(p["coefficients"]))

    interface = None
    if top["interface"] is None:
        if schema["interface"] == "required":
            raise ManifestError(f"{top['study']} requires an interface section")
    elif schema["interface"] == "rejected":
        raise ManifestError(f"{top['study']} reads no interface section")
    else:
        i = _take(top["interface"], {
            "radius0": ("a number", None), "center": ("a list of numbers", ()),
            "delta0": ("a number or null", None)}, "interface")
        interface = InterfaceSpec(radius0=i["radius0"], center=tuple(i["center"]),
                                  delta0=i["delta0"])

    solver = _take(top["solver"], schema["solver"], "solver")
    params = _take(top["params"], schema["params"], "params")
    if "eta_exponent" in top["params"] and params["eta_rule"] != "custom":
        raise ManifestError(f"{top['study']} reads no params.eta_exponent with "
                            f"params.eta_rule {json.dumps(params['eta_rule'])}")
    # a study draws its random start only where no interface gives one
    seed = top["seed"] if "seed" in schema["reads"] and interface is None else None
    if "seed" in data and seed is None:
        raise ManifestError(f"{top['study']} reads no seed with an interface section")

    kernel = None
    key, value = schema.get("kernel_unless", (None, None))
    if key is not None and params[key] == value:
        if "kernel" in data:
            raise ManifestError(f"{top['study']} reads no kernel section with "
                                f"params.{key} {json.dumps(value)}")
    elif "kernel" in schema["reads"]:  # built only here: its normalization loads scipy
        kernel = MollifierSpec(dim=grid.dim, beta=k["beta"], bump_radius=k["bump_radius"])

    return StudyManifest(study=top["study"], grid=grid, kernel=kernel,
                         potential=potential, interface=interface,
                         solver=solver, params=params, seed=seed)


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
