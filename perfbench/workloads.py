"""The benchmark's four workloads: manifests and CLI calls made from a seed.

The seed picks the interface centre, on a grid node, and nothing else.  A
shift by whole grid cells leaves the amount of work and the accuracy of a
study unchanged up to rounding, while the arrays the program sees differ
from seed to seed.  Two workloads take the same inputs on every seed:
`consistency` has no interface, and `spectral-floor` keeps its circle at the
origin because there the centre changes the amount of work.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("consistency", "flow", "energy", "spectral-floor")

#: 3D symbol run by the `consistency` workload after the 2D study.
SYMBOL_3D = {"dim": 3, "points_per_axis": 32, "eta": 2.0 ** -8}

#: dt = dt_max / 2 for the quartic well without stabilizer: eps^2 / 8.
ENERGY_EPS = 0.05
ENERGY_DT = ENERGY_EPS ** 2 / 8.0
ENERGY_STEPS = 500


def interface_centre(seed: int, points_per_axis: int) -> list:
    """A grid node strictly inside (-pi, pi)^2, drawn from the seed."""
    rng = random.Random(seed)
    h = 2.0 * math.pi / points_per_axis
    half = points_per_axis // 2
    return [(rng.randrange(1, points_per_axis) - half) * h for _ in range(2)]


def manifest(workload: str, seed: int) -> dict:
    if workload == "consistency":
        return {"study": "consistency",
                "grid": {"dim": 2, "points_per_axis": 64},
                "params": {"etas": [2.0 ** -j for j in range(0, 4)]}}
    if workload == "flow":
        # criterion 8's run in the paper's coupling eta = eps^4, shortened
        # from t_end 0.3 to 1000 steps
        return {"study": "mcf",
                "grid": {"dim": 2, "points_per_axis": 256},
                "interface": {"radius0": 1.0,
                              "center": interface_centre(seed, 256)},
                "params": {"epsilons": [0.04], "eta_rule": "pow4",
                           "dts": [1.6e-5], "t_end": 1000 * 1.6e-5,
                           "diagnostic_stride": 250}}
    if workload == "energy":
        # criterion 4's run: local operator, no stabilizer, a log every step
        return {"study": "simulate",
                "grid": {"dim": 2, "points_per_axis": 256},
                "interface": {"radius0": 1.0,
                              "center": interface_centre(seed, 256)},
                "solver": {"epsilon": ENERGY_EPS, "dt": ENERGY_DT,
                           "t_end": ENERGY_STEPS * ENERGY_DT,
                           "stabilizer": 0.0, "diagnostic_stride": 1}}
    if workload == "spectral-floor":
        # centred at the origin on every seed: the eigensolver starts from a
        # fixed random vector, so moving the circle changes its iteration count
        return {"study": "spectral-floor",
                "grid": {"dim": 2, "points_per_axis": 256},
                "interface": {"radius0": 1.0, "delta0": 0.8, "center": [0.0, 0.0]},
                "params": {"epsilons": [0.1, 0.05], "tol": 1e-8}}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_manifest(workload: str, seed: int, directory: str) -> str:
    path = os.path.join(directory, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest(workload, seed), fh, indent=2)
    return path


def cli_calls(workload: str, manifest_path: str, out: str) -> list:
    """The `nlac` argument lists one round runs, in order."""
    study = manifest(workload, 0)["study"]
    calls = [[study, "--manifest", manifest_path, "--out", out]]
    if workload == "consistency":
        calls.append(["symbol", "--dim", str(SYMBOL_3D["dim"]),
                      "--points-per-axis", str(SYMBOL_3D["points_per_axis"]),
                      "--eta", repr(SYMBOL_3D["eta"]), "--out", out])
    return calls
