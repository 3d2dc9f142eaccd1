"""Correctness checks on the outputs of each workload, made apart from nlac.

Nothing here imports the program.  Each check compares an output against a
computation of the benchmark's own or a property the method must have, and
returns the list of what failed together with the workload's accuracy error:
the relative error of the study's headline number against that reference.
An output that cannot be read raises OSError, ValueError or KeyError.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar
from scipy.special import j0

# The mollifier of the paper's kernel at the program's defaults:
# rho1(u) = C u^beta exp(-1/(1 - (u/r0)^2)) on [0, r0), with C fixed by
# int_0^r0 rho1(u) u^(d-1) du = 2 / C_d, C_2 = pi, C_3 = 4 pi / 3.
BUMP_RADIUS = math.pi / 2.0
BETA = {2: 1.5, 3: 0.5}
MOMENT = {2: math.pi, 3: 4.0 * math.pi / 3.0}
SPHERE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _bump(u: float) -> float:
    s2 = (u / BUMP_RADIUS) ** 2
    return math.exp(-1.0 / (1.0 - s2)) if s2 < 1.0 else 0.0


@lru_cache(maxsize=None)
def _rho_constant(dim: int) -> float:
    moment = quad(lambda u: u ** (BETA[dim] + dim - 1) * _bump(u), 0.0, BUMP_RADIUS,
                  epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return 2.0 / MOMENT[dim] / moment


def _rho1(dim: int, u: float) -> float:
    return _rho_constant(dim) * u ** BETA[dim] * _bump(u)


def _m1_2d(z: float) -> float:
    """m_1(z) = 2 pi int rho1(u) u^-1 (1 - J0(z u)) du in 2D."""
    return SPHERE[2] * quad(lambda u: _rho1(2, u) / u * (1.0 - j0(z * u)),
                            0.0, BUMP_RADIUS, epsabs=0.0, epsrel=1e-12, limit=400)[0]


@lru_cache(maxsize=None)
def consistency_constant() -> float:
    """max_z g(z) / (2 pi) with g(z) = (z^2 - m_1(z)) / z^3, in 2D."""
    res = minimize_scalar(lambda z: -(z * z - _m1_2d(z)) / z ** 3,
                          bounds=(1.0, 10.0), method="bounded",
                          options={"xatol": 1e-8})
    return -res.fun / (2.0 * math.pi)


@lru_cache(maxsize=None)
def expansion_constant(dim: int) -> float:
    """c_d = |S^(d-1)| int rho1(u) u^(d+1) du / (8 d (d + 2))."""
    moment = quad(lambda u: _rho1(dim, u) * u ** (dim + 1), 0.0, BUMP_RADIUS,
                  epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return SPHERE[dim] * moment / (8 * dim * (dim + 2))


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_consistency(out: str, eta_3d: float) -> tuple:
    failures = []
    report = _read_json(os.path.join(out, "consistency.json"))
    if not 0.9 <= report["slope"] <= 1.1:
        failures.append(f"consistency slope {report['slope']:.4f} outside [0.9, 1.1]")
    k_ref = consistency_constant()
    k_err = abs(report["max_k"] - k_ref) / k_ref
    if k_err > 0.02:
        failures.append(f"max_k {report['max_k']:.6f} is {k_err:.2%} from "
                        f"g(z*)/(2pi) = {k_ref:.6f} (limit 2%)")

    with open(os.path.join(out, "symbol.csv")) as fh:
        rows = [(float(r["k_abs"]), float(r["m_eta"])) for r in csv.DictReader(fh)]
    k_abs = np.array([k for k, _ in rows])
    m = np.array([v for _, v in rows])
    if not rows or k_abs[0] != 0.0 or m[0] != 0.0:
        failures.append("3D symbol does not start with m(0) = 0")
    elif np.any(m[1:] <= 0.0):
        failures.append(f"3D symbol has {int(np.sum(m[1:] <= 0.0))} nonpositive entries")
    else:
        k, m = k_abs[1:], m[1:]
        c3 = expansion_constant(3)
        measured = (k * k - m) / (eta_3d ** 2 * k ** 4)
        worst = float(np.max(np.abs(measured - c3))) / c3
        if worst > 0.01:
            failures.append(f"3D symbol: (|k|^2 - m)/(eta^2 |k|^4) is {worst:.2%} "
                            f"from c_3 = {c3:.6f} (limit 1%)")
    return failures, k_err


def check_flow(out: str, radius0: float) -> tuple:
    failures = []
    report = _read_json(os.path.join(out, "mcf.json"))
    errors = list(report["radius_errors"].values())
    if not errors:
        raise ValueError("mcf report has no radius errors")
    worst = max(errors)
    if not worst <= 0.02:
        failures.append(f"radius error {worst:.4f} against sqrt(R0^2 - 2t) "
                        f"above 0.02")
    return failures, worst / radius0


def read_snapshot(path: str) -> np.ndarray:
    """The NLAC snapshot format: magic, <BIB dim/N/flag, then float64 values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"NLAC" or len(blob) < 10:
        raise ValueError("bad snapshot header")
    dim, n, flag = struct.unpack("<BIB", blob[4:10])
    if flag != 0 or len(blob) != 10 + 8 * n ** dim:
        raise ValueError(f"snapshot of {len(blob)} bytes does not hold {n}^{dim} values")
    return np.frombuffer(blob[10:], dtype="<f8").reshape((n,) * dim)


def _wavenumbers_sq(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None] ** 2 + k[None, :] ** 2


def local_energy(c: np.ndarray, eps: float) -> float:
    """(1/2) int |grad c|^2 + eps^-2 int (1 - c^2)^2 / 4 on [0, 2 pi)^2."""
    n = c.shape[0]
    cell = (2.0 * math.pi / n) ** 2
    chat = np.fft.fft2(c) * cell
    grad = 0.5 * (2.0 * math.pi) ** -2 * float(np.sum(_wavenumbers_sq(n) * np.abs(chat) ** 2))
    well = float(np.sum((1.0 - c * c) ** 2 / 4.0)) * cell
    return grad + well / eps ** 2


def area_radius(c: np.ndarray) -> float:
    """Radius of the disc with the area of {c = -1}: int (1 - c)/2 = pi R^2."""
    cell = (2.0 * math.pi / c.shape[0]) ** 2
    return math.sqrt(float(np.sum(1.0 - c)) / 2.0 * cell / math.pi)


def check_energy(out: str, eps: float, n: int, radius0: float) -> tuple:
    failures = []
    with open(os.path.join(out, "run.csv")) as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    e = np.array([float(r["energy"]) for r in rows])
    sup = np.array([float(r["sup_norm"]) for r in rows])
    increase = float(np.max(np.diff(e) - 1e-10 * (1.0 + np.abs(e[:-1]))))
    if increase > 0.0:
        failures.append(f"energy rises by {increase:.3e} beyond the 1e-10 relative slack")
    if sup.max() > 1.0 + 1e-6:
        failures.append(f"sup norm {sup.max():.9f} above 1 + 1e-6")
    c = read_snapshot(os.path.join(out, "final.nlac"))
    if c.shape != (n, n):
        raise ValueError(f"final snapshot has shape {c.shape}, expected {(n, n)}")
    own = local_energy(c, eps)
    if abs(own - e[-1]) > 1e-9 * abs(own):
        failures.append(f"energy of the final snapshot {own:.12g} differs from "
                        f"the last logged energy {e[-1]:.12g}")
    exact = math.sqrt(radius0 ** 2 - 2.0 * t[-1])
    return failures, abs(area_radius(c) - exact) / radius0


def _profile_field(n: int, centre, radius0: float, eps: float) -> np.ndarray:
    """tanh(r / (eps sqrt 2)) of the signed distance r to the circle."""
    x = np.arange(n) * (2.0 * math.pi / n)
    d = [(x - c + math.pi) % (2.0 * math.pi) - math.pi for c in centre]
    r = np.sqrt(d[0][:, None] ** 2 + d[1][None, :] ** 2) - radius0
    return np.tanh(r / (eps * math.sqrt(2.0)))


def rayleigh_quotient(n: int, centre, radius0: float, eps: float) -> float:
    """RQ of v = 1 - tanh^2, the profile's radial derivative, for
    -Laplacian + eps^-2 f''(u) with f''(u) = 3u^2 - 1."""
    u = _profile_field(n, centre, radius0, eps)
    v = 1.0 - u * u
    lap = np.real(np.fft.ifft2(_wavenumbers_sq(n) * np.fft.fft2(v)))
    return float(np.sum(v * lap + (3.0 * u * u - 1.0) / eps ** 2 * v * v) / np.sum(v * v))


def _radial_floor(eps: float, radius0: float, m: int) -> float:
    """Lowest eigenvalue of the radial problem by second-order differences.

    -(1/r)(r phi')' + eps^-2 f''(tanh((r - R0)/(eps sqrt 2))) phi = lam phi,
    written for psi = sqrt(r) phi on [R0 - 0.8, R0 + 0.8] with psi = 0 at the
    ends, where the eigenfunction has decayed below 1e-4 for eps <= 0.1.
    """
    r = np.linspace(radius0 - 0.8, radius0 + 0.8, m + 2)[1:-1]
    h = r[1] - r[0]
    u = np.tanh((r - radius0) / (eps * math.sqrt(2.0)))
    diag = 2.0 / h ** 2 + (3.0 * u * u - 1.0) / eps ** 2 - 1.0 / (4.0 * r * r)
    off = np.full(m - 1, -1.0 / h ** 2)
    return float(eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


@lru_cache(maxsize=None)
def radial_floor(eps: float, radius0: float) -> float:
    """`_radial_floor` extrapolated to h = 0 from two meshes (Richardson)."""
    coarse, fine = (_radial_floor(eps, radius0, m) for m in (20000, 40000))
    return fine + (fine - coarse) / 3.0


def check_spectral_floor(out: str, n: int, centre, radius0: float) -> tuple:
    failures = []
    report = _read_json(os.path.join(out, "spectral_floor.json"))
    table = {float(eps): value for eps, value in report["table"]}
    if not all(report["converged"].values()):
        failures.append(f"estimates did not converge: {report['converged']}")
    coarse = table[max(table)]
    accuracy = 0.0
    for eps, value in sorted(table.items()):
        rq = rayleigh_quotient(n, centre, radius0, eps)
        if not -1.0 / eps ** 2 <= value <= rq + 1e-9 * max(1.0, abs(rq)):
            failures.append(f"floor {value:.6f} at eps {eps} outside "
                            f"[-1/eps^2, RQ] = [{-1.0 / eps ** 2:.1f}, {rq:.6f}]")
        if value < -1.2 * abs(coarse):
            failures.append(f"floor {value:.6f} at eps {eps} below -1.2 |floor at "
                            f"eps {max(table)}| = {-1.2 * abs(coarse):.6f}")
        ref = radial_floor(eps, radius0)
        err = abs(value - ref) / abs(ref)
        if err > 1e-3:
            failures.append(f"floor {value:.6f} at eps {eps} is {err:.2e} from the "
                            f"radial eigenvalue {ref:.6f} (limit 1e-3)")
        accuracy = max(accuracy, err)
    return failures, accuracy
