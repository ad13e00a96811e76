#!/usr/bin/env python3
"""End-to-end benchmark of the shared-whiteboard simulator.

    python3 perfbench/run.py --workload ids --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # the benchmark's own test

Run from the root of a source checkout. It builds perfbench/'s wbperf binary
(a CMake package on top of the simulator's libraries) into .bench_build/, or
into $CARGO_TARGET_DIR when that is set, then measures one workload for
--seconds seconds as a closed loop, one client issuing commands back to back
with at most min(4, nproc) threads:

  - one fresh process per RSS_METRICS command, on the workload's larger
    "rss" instances, so its peak RSS is its own; a `wbperf info` process that
    runs no command gives the baseline they are compared with;
  - LOOPS `wbperf loop` processes sharing the remaining time, each cycling
    through every timed command, set-up included, in a fixed order after one
    untimed warmup cycle; each metric is the trimmed mean of all its samples
    (run_mean_ms of the single runs' latency), run_p90_ms their 90th
    percentile. Interleaving spreads every command's samples over the whole
    run, which is what keeps them steady on shared cores.

Every command's outputs are checked against totals pinned in workloads.py;
any mismatch, error, budget overrun or failed fleet plan counts as a failed
command.

--trace 0 prints every end-to-end metric, --trace 1 runs the traced
per-layer process instead and prints every per-layer metric. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Spans and per-run results are written under the build directory.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from workloads import (BUDGET, GOLDEN, MEMO_BUDGET, SMOKE,  # noqa: E402
                       WORKLOADS, expected_sweep)

ROOT = HERE.parent
BUILD = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
if not BUILD.is_absolute():
    BUILD = ROOT / BUILD
CMAKE_DIR = BUILD / "perfbench"
WBPERF = CMAKE_DIR / "wbperf"
WORK = BUILD / "work"
PROCESS_TIMEOUT_S = 90
HLL_TOLERANCE = 3 * 1.04 / 2 ** 7  # 3 standard errors of hll:14

# End-to-end metric of each command of the interleaved loop (wbperf loop),
# reported as the 10%-trimmed mean of the run's calls (see trimmed_mean).
# enumerate_1 runs and is verified but has no metric: the serial sweep's
# time swung between its contended and uncontended modes from run to run
# (ten-seed spread 0.30-0.31 on `runs`, above the 0.25 bound); its calls are
# kept in the results file.
LOOP_METRICS = {
    "setup": "setup_s",
    "enumerate_par": "enumerate_par_s",
    "enumerate_hll": "enumerate_hll_s",
    "memoize": "memoize_s",
    "symbolic": "symbolic_s",
    "fleet": "fleet_s",
    "battery": "battery_s",
    "verdicts": "verdicts_s",
}
# Commands run once more, each alone in a fresh process on the workload's
# "rss" instances, for peak RSS.
RSS_METRICS = {
    "enumerate_par": "enumerate_rss_mb",
    "memoize": "memoize_rss_mb",
    "symbolic": "symbolic_rss_mb",
    "fleet": "fleet_rss_mb",
}
LOOPS = 2               # loop processes per run, sharing the remaining time
MIN_SINGLE_RUNS = 100   # per run: >= 10 samples beyond p90
MIN_LOOP_SECONDS = 3
MIN_TRACED_ROUNDS = 2
SINGLE_RUNS_TRACED = 10


def fail_exit(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


# --- build ---------------------------------------------------------------------

def build(threads):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail_exit("no simulator sources at %s: run from a source checkout"
                  % ROOT)
    CMAKE_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        if not (CMAKE_DIR / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=out, stderr=out) != 0:
                fail_exit("configure failed, see %s" % log, 1)
        if subprocess.call(["cmake", "--build", str(CMAKE_DIR), "--target",
                            "wbperf", "-j", str(threads)],
                           stdout=out, stderr=out) != 0:
            fail_exit("build failed, see %s" % log, 1)


# --- processes -----------------------------------------------------------------

def spawn(args):
    """Run one process to completion: (exit code, stdout)."""
    with open(BUILD / "stderr.log", "ab") as err:
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        proc.stdout.close()
        proc.wait()
    finally:
        timer.cancel()
    return proc.returncode, out


def instances(workload, rss=False):
    """The workload's inputs; with `rss`, its larger peak-RSS instances."""
    inputs = {k: v for k, v in workload.items() if k != "rss"}
    if rss:
        inputs.update(workload["rss"])
    return inputs


def wbperf(command, inputs, seed, threads, extra=()):
    w = {k: (v.format(seed=seed) if isinstance(v, str)
             else ",".join(x.format(seed=seed) for x in v))
         for k, v in inputs.items()}
    args = [str(WBPERF), command, "--seed=%d" % seed,
            "--threads=%d" % threads, "--budget=%d" % BUDGET,
            "--memo-budget=%d" % MEMO_BUDGET,
            "--sweep=" + w["sweep"], "--memo=" + w["memo"],
            "--battery=" + w["battery"], "--single=" + w["single"],
            "--load=" + w["load"], "--work=" + str(WORK),
            "--golden=" + str(ROOT / GOLDEN)] + list(extra)
    code, out = spawn(args)
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        doc = {"error": "unparsable output: %r" % out[-300:]}
    if code != 0 and "error" not in doc:
        doc["error"] = "exit code %d" % code
    return doc


# --- verification --------------------------------------------------------------

class Verifier:
    """Pins every command's totals; counts attempted and failed commands."""

    def __init__(self, workload, threads, pin_offset=0):
        self.w = workload
        self.threads = threads
        self.pin_offset = pin_offset
        self.attempted = 0
        self.problems = []

    def pins(self, inputs):
        """Totals the sweep and memo instances of `inputs` must report."""
        sweep = expected_sweep(inputs["sweep"])
        sweep["executions"] += self.pin_offset
        return sweep, expected_sweep(inputs["memo"])

    @property
    def failed(self):
        return len({p.split(":")[0] for p in self.problems})

    def check(self, tag, doc, inputs=None):
        """Record one command run on `inputs` (by default the workload's);
        returns True when it verified."""
        self.attempted += 1
        before = len(self.problems)
        sweep, memo = self.pins(inputs or self.w)
        if "error" in doc:
            self._bad(tag, "error: " + doc["error"])
        elif doc.get("command") == "traced":
            self._traced(tag, doc, sweep, memo)
        else:
            if not doc.get("consistent"):
                self._bad(tag, "calls disagreed with the first call")
            self._command(tag, doc["command"], doc["totals"], sweep, memo)
        return len(self.problems) == before

    def _bad(self, tag, what):
        self.problems.append("%s: %s" % (tag, what))

    def _expect(self, tag, totals, key, want):
        if totals.get(key) != want:
            self._bad(tag, "%s = %s, pinned %s" % (key, totals.get(key), want))

    def _sweep(self, tag, totals, want, hll=False):
        self._expect(tag, totals, "executions", want["executions"])
        self._expect(tag, totals, "failures", 0)
        if "reported_executions" in totals:
            self._expect(tag, totals, "reported_executions",
                         want["executions"])
        if "correct" in totals:
            self._expect(tag, totals, "correct", 1)
        if hll:
            got = totals.get("distinct", -1)
            if abs(got - want["distinct"]) > HLL_TOLERANCE * want["distinct"]:
                self._bad(tag, "hll distinct %s outside 3 sigma of %s"
                          % (got, want["distinct"]))
        else:
            self._expect(tag, totals, "distinct", want["distinct"])

    def _command(self, tag, command, t, sweep, memo):
        if command == "setup":
            self._expect(tag, t, "hellos", self.threads)
            self._expect(tag, t, "shards", self.threads)
            self._expect(tag, t, "load_roundtrip", 1)
            self._expect(tag, t, "cases", 3 + len(self.w["battery"]))
        elif command in ("enumerate_1", "enumerate_par", "symbolic", "fleet"):
            self._sweep(tag, t, sweep)
            if command == "fleet":
                self._expect(tag, t, "reissues", 0)
        elif command == "enumerate_hll":
            self._sweep(tag, t, sweep, hll=True)
        elif command == "memoize":
            self._sweep(tag, t, memo)
        elif command == "battery":
            self._expect(tag, t, "reports", 7 * len(self.w["battery"]))
            self._expect(tag, t, "correct", t.get("reports"))
        elif command == "single":
            self._expect(tag, t, "correct", t.get("runs"))
        elif command == "verdicts":
            self._expect(tag, t, "match", 1)
        else:
            self._bad(tag, "unknown command " + command)

    def _traced(self, tag, doc, sweep, memo):
        for problem in doc.get("problems", []):
            self._bad(tag, problem)
        t = doc["totals"]
        self._sweep(tag, t, sweep)
        self._sweep(tag, {"executions": t.get("memo_executions"),
                          "distinct": t.get("memo_distinct"),
                          "failures": t.get("memo_failures")}, memo)
        self._expect(tag, t, "battery_correct", t.get("battery_trials"))
        self._expect(tag, t, "single_correct", t.get("single_runs"))
        self._expect(tag, t, "verdict_cells_matched", t.get("verdict_cells"))
        if not t.get("verdict_cells"):
            self._bad(tag, "no verdict cells")


# --- context -------------------------------------------------------------------

def git_state():
    """(sha, dirty) of the checkout, or unknown when it is not a git work
    tree of its own (an enclosing repository does not count)."""
    def git(*args):
        return subprocess.run(["git"] + list(args), cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise ValueError
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, ValueError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)", None


def machine_context(threads):
    """Build and machine facts, and the peak RSS of a wbperf process that
    runs no command: the baseline every RSS metric includes."""
    code, out = spawn([str(WBPERF), "info"])
    info = json.loads(out) if code == 0 else {}
    sha, dirty = git_state()
    return {
        "git_sha": sha, "git_dirty": dirty,
        "build_type": info.get("build_type"),
        "non_release_build": info.get("build_type") != "Release",
        "compiler": info.get("compiler"),
        "compiler_version": info.get("compiler_version"),
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": info.get("hardware_concurrency"),
        "kernel": platform.release(),
        "threads": threads,
        "loadavg_start": os.getloadavg(),
        "baseline_rss_mb": info.get("peak_rss_mb"),
    }


# --- runs ----------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else float("nan")


def trimmed_mean(values, share=0.1):
    """Mean of the calls left after dropping `share` at each end.

    On a shared host one call takes either its uncontended time or up to
    ~1.8x that, depending on whether the host is contending for its CPU at
    that moment, so a run's samples are bimodal. Their median jumps from one
    mode to the other as the contended share of the run crosses one half;
    the trimmed mean moves in proportion to that share and still drops
    outliers. Over ten seeds per workload this took the widest run-to-run
    spread of the loop metrics from 0.32 (median) to 0.20."""
    if not values:
        return float("nan")
    values = sorted(values)
    cut = int(len(values) * share)
    return statistics.fmean(values[cut:len(values) - cut])


def run_untraced(workload, seed, seconds, threads, verifier, report):
    start = time.monotonic()
    metrics = {}
    rss_inputs = instances(workload, rss=True)
    baseline = report["context"]["baseline_rss_mb"]
    report["rss_share_above_baseline"] = {}
    for command, metric in RSS_METRICS.items():
        doc = wbperf(command, rss_inputs, seed, threads)
        if verifier.check("rss " + command, doc, rss_inputs):
            peak = doc["peak_rss_mb"]
            metrics[metric] = (peak, "MB")
            share = (peak - baseline) / peak
            report["rss_share_above_baseline"][metric] = share
            print("perfbench: %s %.1f MB, %.0f%% above the %.1f MB baseline"
                  % (metric, peak, 100 * share, baseline))
    samples = {metric: [] for metric in LOOP_METRICS.values()}
    unreported = {}
    single = []
    cycles = []
    for i in range(LOOPS):
        left = seconds - (time.monotonic() - start)
        loop_s = max(MIN_LOOP_SECONDS, left / (LOOPS - i))
        doc = wbperf("loop", instances(workload), seed, threads,
                        ["--seconds-ms=%d" % (loop_s * 1000),
                         "--min-single=%d" % -(-MIN_SINGLE_RUNS // LOOPS)])
        if "error" in doc:
            verifier.check("loop %d" % i, doc)
            continue
        cycles.append(doc["cycles"])
        for command, result in doc["results"].items():
            if not verifier.check("loop %d %s" % (i, command), result):
                continue
            if command == "single":
                single += result["samples"]
            elif command in LOOP_METRICS:
                samples[LOOP_METRICS[command]] += result["samples"]
            else:
                unreported.setdefault(command, []).extend(result["samples"])
    for metric, values in samples.items():
        metrics[metric] = (trimmed_mean(values), "s")
    single_ms = [s * 1e3 for s in single]
    # Single runs are bimodal like the loop's calls, so their centre is the
    # trimmed mean too: the median flipped between modes (spread 0.21-0.27).
    metrics["run_mean_ms"] = (trimmed_mean(single_ms), "ms")
    p90 = (statistics.quantiles(single_ms, n=10)[8]
           if len(single_ms) >= 10 else float("nan"))
    metrics["run_p90_ms"] = (p90, "ms")
    report["loop_cycles"] = cycles
    report["samples"] = {k: len(v) for k, v in samples.items()}
    report["raw"] = samples
    report["raw_unreported"] = unreported
    report["single_runs"] = len(single_ms)
    report["run_p50_ms"] = median(single_ms)
    report["raw_single_ms"] = single_ms
    report["single_runs_beyond_p90"] = sum(1 for s in single_ms if s > p90)
    print("perfbench: loop cycles %s, %d single runs (%d beyond p90)"
          % (cycles, len(single_ms), report["single_runs_beyond_p90"]))
    return metrics


def layer_unit(name):
    """Unit of a per-layer time or ratio metric, from its name."""
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_ns", "ns"), ("_s", "s"),
                         ("_s_max", "s"), ("_per_run", "1/run")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def run_traced(workload, seed, seconds, threads, verifier, report):
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    docs = []
    start = time.monotonic()
    rounds = 0
    while rounds < MIN_TRACED_ROUNDS or time.monotonic() - start < seconds:
        spans = traces / ("seed%d-round%d.spans.json" % (seed, rounds))
        doc = wbperf("traced", instances(workload), seed, threads,
                        ["--runs=%d" % SINGLE_RUNS_TRACED,
                         "--trace-out=" + str(spans)])
        if verifier.check("traced %d" % rounds, doc):
            docs.append(doc)
        rounds += 1
    metrics = {}
    if docs:
        for name in docs[0]["counts"]:
            values = [d["counts"][name] for d in docs]
            if len(set(values)) != 1:
                verifier.problems.append(
                    "traced: count %s differs between runs: %s"
                    % (name, values))
            metrics[name] = (values[0],
                             "bytes" if name.endswith("bytes") else "count")
        for name in docs[0]["metrics"]:
            metrics[name] = (median([d["metrics"][name] for d in docs]),
                             layer_unit(name))
    report["traced_rounds"] = rounds
    report["spans_dir"] = str(traces)
    return metrics


def run_workload(name, workload, seed, seconds, trace, threads,
                 pin_offset=0):
    """Measure one workload; returns the result object."""
    verifier = Verifier(workload, threads, pin_offset)
    context = machine_context(threads)
    if context["non_release_build"]:
        print("perfbench: WARNING: %s build, timings are not comparable"
              % context["build_type"], file=sys.stderr)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "context": context}
    WORK.mkdir(parents=True, exist_ok=True)
    runner = run_traced if trace else run_untraced
    metrics = runner(workload, seed, seconds, threads, verifier, report)
    context["loadavg_end"] = os.getloadavg()
    print("perfbench: context " + json.dumps(context))
    result_metrics = {}
    for metric, (value, unit) in metrics.items():
        result_metrics[metric] = {"value": value, "unit": unit}
        print("perfbench: %-36s %16.6g %s" % (metric, value, unit))
    for problem in verifier.problems:
        print("perfbench: FAILED " + problem, file=sys.stderr)
    result = {"correct": not verifier.problems,
              "attempted": verifier.attempted,
              "failed": verifier.failed,
              "metrics": result_metrics}
    report.update(result)
    report["problems"] = verifier.problems
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / ("%s-seed%d-trace%d.json" % (name, seed, trace)),
              "w") as out:
        json.dump(report, out, indent=1)
    return result


def smoke(threads):
    """The three workloads at tiny sizes through the same verifier, both
    modes, then once with a deliberately wrong pin, which must fail."""
    ok = True
    for name, workload in SMOKE.items():
        for trace in (0, 1):
            r = run_workload(name, workload, 1, 1, trace, threads)
            good = r["correct"] and r["failed"] == 0
            print("smoke %-5s trace=%d: %s (%d attempted, %d failed)"
                  % (name, trace, "ok" if good else "FAILED",
                     r["attempted"], r["failed"]))
            ok = ok and good
    r = run_workload("ids", SMOKE["ids"], 1, 1, 0, threads, pin_offset=1)
    caught = not r["correct"] and r["failed"] > 0
    print("smoke wrong pin: %s (%d of %d commands failed)"
          % ("caught" if caught else "MISSED", r["failed"], r["attempted"]))
    return ok and caught


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own test and exit")
    args = parser.parse_args()
    threads = max(1, min(4, len(os.sched_getaffinity(0))))
    build(threads)
    if args.smoke:
        sys.exit(0 if smoke(threads) else 1)
    if not args.workload:
        parser.error("--workload is required")
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, args.trace, threads)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
