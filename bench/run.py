"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh worker process (cold
element and quadrature caches, as one ``helm-dpg`` invocation has), until
S seconds have passed, then prints a summary and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With --trace 0 the metrics are the end-to-end ones (medians over the
rounds); with --trace 1 the rounds alternate untraced and traced, and the
metrics are the per-layer ones from the traced rounds plus the tracing
overhead against the untraced rounds.  Exits 2 without a result when the
checkout has no ``src/helmdpg``, and 1 when a round cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("theta-sweep", "frequency-track", "mesh-solve", "resonance-sweep")
END_TO_END = {"wall_s": "s", "slowest_row_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
RATIOS = ("localforms.element_kit.hit_ratio", "dispersion.evals_per_root", "trace.overhead")
MIN_SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class RoundFailed(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith((".s", ".self_s")) else "count"


def spawn(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> dict:
    """Run one worker to its end and return its record with ``setup_s``."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "HELM_DPG_THREADS"}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"worker ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_ready"] - t_spawn
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "helmdpg" / "__init__.py").is_file():
        print(f"no helmdpg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    min_rounds = 2 if args.trace else 1
    rounds = []
    try:
        while len(rounds) < min_rounds or time.monotonic() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rec = spawn(args.workload, args.seed, deadline, trace=traced)
            rec["traced"] = traced
            rounds.append(rec)
            print(f"round {len(rounds)}{' (traced)' if traced else ''}: "
                  f"wall {rec['wall_s']:.3f} s, slowest call {rec['slowest_row_s']:.3f} s, "
                  f"cpu {rec['cpu_s']:.3f} s, peak rss {rec['peak_rss_mb']:.0f} MB, "
                  f"setup {rec['setup_s']:.3f} s, {len(rec['failures'])}/{rec['attempted']} failed",
                  flush=True)
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, deadline, setup_only=True)["setup_s"])
    except RoundFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        names = sorted(traced[0]["layers"])
        values = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
        values["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0
        )
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in sorted(values.items())}
    else:
        values = {n: statistics.median(r[n] for r in plain) for n in END_TO_END if n != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}

    for failure in sorted({f for r in rounds for f in r["failures"]}):
        print(f"failed: {failure}")
    aggregate = sorted({f for r in rounds for f in r["aggregate_failures"]})
    for failure in aggregate:
        print(f"check failed: {failure}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not aggregate,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
