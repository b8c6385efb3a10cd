"""One round of one workload, in a fresh process with cold caches.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports helmdpg from the checkout's ``src``, generates the inputs, runs the
timed part (tracing it with --trace), checks the outputs and prints one
JSON line.  ``t_ready`` is the monotonic clock when the inputs are ready,
so the caller, which noted the clock when it started this process, can
take set-up time as the difference.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import helmdpg

    if Path(helmdpg.__file__).resolve().parent != ROOT / "src" / "helmdpg":
        raise SystemExit(f"helmdpg imported from {helmdpg.__file__}, not from {ROOT / 'src'}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(random.Random(args.seed))
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
    calls = workloads.Calls()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    results = workload.run(inputs, calls)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss = _peak_rss_mb()

    record = {
        "t_ready": t_ready,
        "wall_s": wall,
        "slowest_row_s": max(calls.seconds),
        "cpu_s": cpu,
        "peak_rss_mb": rss,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", t0,
                    {"workload": args.workload, "seed": args.seed, "wall_s": wall})
    ops, aggregate = workload.check(inputs, results)
    record["attempted"] = len(ops)
    record["failures"] = [f"{label}: {'; '.join(fails)}" for label, fails in ops if fails]
    record["aggregate_failures"] = aggregate
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
