"""Command line entry point: batch studies and simulations, no interaction.

Exit codes: 0 on success / passed check, 1 on a failed acceptance check,
2 on usage or validation errors, a study that would check nothing, a
blow-up, or a float overflow.  Errors print one line on stderr.  A manifest
must name the subcommand as its study; io.STUDIES has what each study reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import io as nio
from .geometry import approximate_solution
from .grid import make_grid
from .kernel import DEFAULT_BUMP_RADIUS, MollifierSpec, QuadratureError, symbol_table
from .potential import PotentialSpec, optimal_profile
from .solver import BlowUpError, SolverConfig, run
from .verify import (band_limited_field, compare_nonlocal_local, consistency_passed,
                     consistency_study, ehrling_check, floor_verdict, gap_passed,
                     lattice_modes, mcf_convergence, mcf_passed, require_floor_tol,
                     require_resolved, spectral_floor)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as UsageError, so they print one line like the rest."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _finite(text: str) -> float:
    """argparse type of every float flag: float() also reads inf and nan."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, schema in nio.STUDIES.items():
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", default="./out")
        if "seed" in schema["reads"]:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("profile")
    p.add_argument("--kind", default="quartic", choices=["quartic", "custom"])
    p.add_argument("--coefficients", default="", help="comma-separated, lowest degree first")
    p.add_argument("--rho-max", type=_finite, default=10.0)
    p.add_argument("--count", type=int, default=401)
    p.add_argument("--out", default="./out")

    p = sub.add_parser("symbol")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--beta", type=_finite, default=None)
    p.add_argument("--bump-radius", type=_finite, default=DEFAULT_BUMP_RADIUS)
    p.add_argument("--eta", type=_finite, required=True)
    p.add_argument("--points-per-axis", type=int, required=True)
    p.add_argument("--out", default="./out")
    return parser


def _cmd_simulate(mani: nio.StudyManifest, out: str) -> int:
    eta = mani.params["eta"]
    table = None if eta is None else symbol_table(mani.kernel, eta, mani.grid)
    config = SolverConfig(grid=mani.grid, potential=mani.potential, table=table,
                          **mani.solver)
    if mani.interface is not None:
        initial = approximate_solution(mani.grid, mani.interface,
                                       mani.interface.radius0, config.epsilon,
                                       mani.potential)
    else:
        rng = np.random.default_rng(mani.seed)
        initial = band_limited_field(mani.grid, mani.grid.points_per_axis // 4, rng)
    try:
        record = run(config, initial)
    except BlowUpError as err:
        err.record.to_csv(os.path.join(out, "run.csv"))  # the steps before the blow-up
        raise
    record.to_csv(os.path.join(out, "run.csv"))
    nio.write_snapshot(record.final_state, os.path.join(out, "final.nlac"))
    return 0


def _verdict(mani: nio.StudyManifest, out: str, params: dict, body: dict,
             passed: bool) -> int:
    """Write the study's report to <out>/<study>.json, '-' in the name as '_';
    exit 0 if it passed, else 1."""
    nio.write_report({"study": mani.study, "params": params, **body, "passed": passed},
                     os.path.join(out, mani.study.replace("-", "_") + ".json"))
    return 0 if passed else 1


def _cmd_consistency(mani: nio.StudyManifest, out: str) -> int:
    etas = mani.params["etas"]
    report = consistency_study(mani.kernel, mani.grid, etas,
                               lattice_modes(mani.grid))
    return _verdict(mani, out, {"etas": list(etas)}, report.to_dict(),
                    consistency_passed(report))


def _cmd_ehrling(mani: nio.StudyManifest, out: str) -> int:
    r_values, trials = mani.params["r_values"], mani.params["trials"]
    report = ehrling_check(mani.kernel, mani.grid, r_values, trials, mani.seed)
    return _verdict(mani, out, {"r_values": list(r_values), "trials": trials},
                    report.to_dict(), report.violations == 0)


def _cmd_spectral_floor(mani: nio.StudyManifest, out: str) -> int:
    epsilons = sorted(mani.params["epsilons"], reverse=True)
    tol = mani.params["tol"]
    if not epsilons:
        raise UsageError("params.epsilons is empty: spectral-floor would check nothing")
    require_floor_tol(tol)  # before any approximate solution is built
    for eps in epsilons:
        require_resolved(eps, mani.grid)
    results = {}
    for eps in epsilons:
        u_a = approximate_solution(mani.grid, mani.interface,
                                   mani.interface.radius0, eps, mani.potential)
        results[eps] = spectral_floor(u_a, eps, mani.potential, tol=tol)
    floor, passed = floor_verdict(results)
    return _verdict(mani, out, {"epsilons": epsilons, "tol": tol}, {
        "table": [[eps, results[eps].value] for eps in epsilons],
        "floor": floor,
        "converged": {str(eps): results[eps].converged for eps in epsilons},
    }, passed)


def _cmd_compare_local(mani: nio.StudyManifest, out: str) -> int:
    etas = mani.params["etas"]
    base = SolverConfig(grid=mani.grid, potential=mani.potential, **mani.solver)
    initial = approximate_solution(mani.grid, mani.interface,
                                   mani.interface.radius0, base.epsilon,
                                   mani.potential)
    report = compare_nonlocal_local(base, mani.kernel, initial, etas)
    return _verdict(mani, out, {"etas": list(etas)}, report.to_dict(), gap_passed(report))


def _cmd_mcf(mani: nio.StudyManifest, out: str) -> int:
    p = mani.params
    epsilons, eta_rule, t_end = p["epsilons"], p["eta_rule"], p["t_end"]
    report = mcf_convergence(mani.interface, epsilons, mani.grid, mani.potential,
                             kernel_spec=mani.kernel, t_end=t_end, dts=p["dts"],
                             diagnostic_stride=p["diagnostic_stride"],
                             eta_exponent=p["eta_exponent"])
    return _verdict(mani, out, {"epsilons": list(epsilons), "eta_rule": eta_rule,
                                "t_end": t_end},
                    report.to_dict(), mcf_passed(report, p["radius_tol"]))


def _cmd_profile(args) -> int:
    if args.rho_max <= 0.0:
        raise UsageError(f"--rho-max must be positive, got {args.rho_max}")
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    coeffs = tuple(float(c) for c in args.coefficients.split(",") if c.strip()) \
        if args.coefficients else ()
    spec = PotentialSpec(kind=args.kind, coefficients=coeffs)
    rho = np.linspace(-args.rho_max, args.rho_max, args.count)
    theta = optimal_profile(spec, rho)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "profile.csv")
    with open(path, "w") as fh:
        fh.write("rho,theta0\n")
        for r, t in zip(rho, theta):
            fh.write(f"{r:.17g},{t:.17g}\n")
    return 0


def _cmd_symbol(args) -> int:
    spec = MollifierSpec(dim=args.dim, beta=args.beta, bump_radius=args.bump_radius)
    grid = make_grid(args.dim, args.points_per_axis)
    table = symbol_table(spec, args.eta, grid)
    os.makedirs(args.out, exist_ok=True)
    table.to_csv(os.path.join(args.out, "symbol.csv"))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "symbol":
            return _cmd_symbol(args)
        mani = nio.load_manifest(args.manifest, study=args.command)
        if getattr(args, "seed", None) is not None:
            if mani.seed is None:
                raise UsageError(f"--seed: {args.command} reads no seed with an interface section")
            mani = dataclasses.replace(mani, seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        command = globals()["_cmd_" + args.command.replace("-", "_")]
        return command(mani, args.out)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, OSError, OverflowError, QuadratureError, BlowUpError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
