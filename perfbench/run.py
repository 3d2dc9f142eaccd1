"""nlac benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round is a fresh process
(`one_round.py`) that imports nlac from `src/` and calls its CLI in-process
with the manifests made here from the seed; rounds repeat until the next one
would end after `--seconds`, and at least one runs.  The outputs of every
round are checked by `checks.py`.  With `--trace 0` the end-to-end metrics
are the medians over rounds; with `--trace 1` untraced and traced rounds
alternate, and the per-layer metrics are the medians over traced rounds.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "study_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "accuracy_err": "rel"}

#: setup is timed at least this many times per run, by extra set-up-only
#: processes when fewer rounds fit
SETUP_SAMPLES = 3

#: a run must end within this many seconds
RUN_LIMIT_S = 170.0


def _spawn(args: list, env: dict, deadline: float) -> tuple:
    """Run one_round.py; returns (parsed last line or None, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "one_round.py"), *args,
           "--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "round timed out"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, tail[0]
    return json.loads(lines[-1]), ""


def _check(workload: str, out: str, manifest: dict) -> tuple:
    grid = manifest["grid"]["points_per_axis"]
    if workload == "consistency":
        return checks.check_consistency(out, workloads.SYMBOL_3D["eta"])
    interface = manifest["interface"]
    if workload == "flow":
        return checks.check_flow(out, interface["radius0"])
    if workload == "energy":
        return checks.check_energy(out, manifest["solver"]["epsilon"], grid,
                                   interface["radius0"])
    return checks.check_spectral_floor(out, grid, interface["center"],
                                       interface["radius0"])


def _worker_env() -> tuple:
    """The program's defaults, except the symbol pool is capped at nproc."""
    env = dict(os.environ)
    env.pop("NLAC_WORKERS", None)
    nproc = len(os.sched_getaffinity(0))
    note = f"symbol pool at os.cpu_count() = {os.cpu_count()}"
    if (os.cpu_count() or 1) > nproc:
        env["NLAC_WORKERS"] = str(nproc)
        note = f"NLAC_WORKERS={nproc} (nproc; os.cpu_count() = {os.cpu_count()})"
    return env, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nlac", "__init__.py")):
        print(f"error: no nlac sources under {os.path.join(ROOT, 'src')}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    env, pool_note = _worker_env()
    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(OUT_ROOT, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    manifest = workloads.manifest(args.workload, args.seed)
    manifest_path = workloads.write_manifest(args.workload, args.seed, run_dir)
    ops_per_round = len(workloads.cli_calls(args.workload, manifest_path, run_dir))

    plain, traced, setups, accuracy = [], [], [], []
    failures, errors = [], []  # failed checks; failed operations
    attempted = failed = 0
    kinds = ("plain", "traced") if args.trace else ("plain",)
    try:
        while True:
            for kind in kinds:
                index = attempted // ops_per_round
                out = os.path.join(run_dir, f"round{index}")
                round_args = ["--workload", args.workload, "--manifest", manifest_path,
                              "--out", out]
                if kind == "traced":
                    round_args += ["--trace", os.path.join(
                        trace_dir, f"{os.path.basename(run_dir)}-round{index}.jsonl")]
                result, error = _spawn(round_args, env, deadline)
                attempted += ops_per_round
                if result is None or any(code != 0 for code in result["codes"]):
                    failed += ops_per_round
                    errors.append(error or f"nlac exit codes {result['codes']}")
                    continue
                try:
                    found, err = _check(args.workload, out, manifest)
                except (OSError, ValueError, KeyError) as exc:
                    failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
                    continue
                failures += found
                accuracy.append(err)
                (traced if kind == "traced" else plain).append(result)
                shutil.rmtree(out, ignore_errors=True)
            elapsed = time.monotonic() - t0
            rounds = attempted // ops_per_round // len(kinds)
            if elapsed + elapsed / rounds > args.seconds or time.monotonic() > deadline:
                break
        if not args.trace:
            setups = [r["setup_s"] for r in plain]
            while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
                result, error = _spawn(["--workload", args.workload, "--manifest",
                                        manifest_path, "--out", run_dir,
                                        "--setup-only"], env, deadline)
                if result is None:
                    errors.append(f"setup: {error}")
                    break
                setups.append(result["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not plain or (args.trace and not traced):
        for line in errors:
            print(f"failed: {line}", file=sys.stderr)
        print("error: no round completed", file=sys.stderr)
        return 1

    def median(key, rounds):
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = median("study_s", traced) - median("study_s", plain)
        units = spans.LAYER_UNITS
        print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds")
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "study_s": median("study_s", plain),
                   "cpu_s": median("cpu_s", plain),
                   "peak_rss_mb": median("peak_rss_mb", plain),
                   "accuracy_err": statistics.median(accuracy)}
        units = END_TO_END
        print(f"{args.workload}: {len(plain)} rounds, setup timed {len(setups)} times")
    print(pool_note)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for line in errors:
        print(f"operation failed: {line}")
    for line in failures:
        print(f"check failed: {line}")
    print(f"attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
