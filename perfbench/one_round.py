"""One round of a workload in a fresh process; prints one JSON line.

    python3 perfbench/one_round.py --workload W --manifest M --out DIR
        --spawned-ns T [--trace FILE] [--setup-only]

`--spawned-ns` is the parent's `time.monotonic_ns()` just before it started
this process, so `setup_s` runs from process start to study entry: the
interpreter, `import nlac` and `io.load_manifest`.  The study is then timed
around each `nlac.cli.main` call, with the CPU time of this process and of
its children (the symbol pool) and the peak resident set of either.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    import nlac.cli
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    nlac.io.load_manifest(args.manifest)
    setup_s = (time.monotonic_ns() - args.spawned_ns) * 1e-9
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    codes = []
    study_s = 0.0
    cpu0 = _cpu_s()
    for call in workloads.cli_calls(args.workload, args.manifest, args.out):
        start = time.perf_counter()
        if tracer is None:
            code = nlac.cli.main(call)
        else:
            code = tracer.call("cli." + call[0], nlac.cli.main, call)
        study_s += time.perf_counter() - start
        codes.append(code)
    cpu_s = _cpu_s() - cpu0
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result.update(study_s=study_s, cpu_s=cpu_s, peak_rss_mb=peak_kb / 1024.0,
                  codes=codes)
    if tracer is not None:
        tracer.write(args.trace)
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.used_radii())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
