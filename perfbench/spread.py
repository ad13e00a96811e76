#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: one run per seed, then per metric the
median and the interquartile distance as a share of the median.

    python3 perfbench/spread.py --workload ids --seeds 1-10 --seconds 15

A metric is steady when its spread stays below a third of the bound
BENCHMARK.json gives it. Run from the root of a source checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bounds(trace):
    try:
        with open(HERE.parent / "BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in
            bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    values = {}
    walls = []
    failures = 0
    for seed in args.seeds:
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        walls.append(time.monotonic() - start)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"] or result["failed"]:
            failures += 1
            print("seed %d: FAILED\n%s" % (seed, out.stderr[-2000:]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %.1f s" % (seed, walls[-1]), flush=True)
    limit = bounds(args.trace)
    print("%-34s %14s %8s %8s" % ("metric", "median", "spread", "bound/3"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = limit.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  UNSTEADY"
        print("%-34s %14.6g %8.4f %8s%s" % (
            name, med, spread, "-" if bound is None else "%.4f" % (bound / 3),
            flag))
    print("runs: %d, failed: %d, wall per run: median %.1f s, max %.1f s"
          % (len(walls), failures, statistics.median(walls), max(walls)))


if __name__ == "__main__":
    main()
