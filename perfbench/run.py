#!/usr/bin/env python3
"""Benchmark entry point.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness from source into .bench_build (first run only; later runs
just check it is up to date), then runs the workload single-threaded and
prints one JSON result as the last line of stdout.

--trace 0 launches fresh harness processes, each timing one call of the
workload, until about S seconds of timed calls are collected, and reports
the end-to-end metrics (work_per_s from the fastest process, peak RSS as the
median over those processes). SETUP_PROCESSES more processes only repeat the
set-up; set-up time is the fastest repeat of any process, because
contention from other tenants moves between CPUs within seconds and slows a
whole process's repeats at once. The first process
also repeats the workload at 4 threads and requires a byte-identical output.
--trace 1 runs one process that adds the per-layer replays and reports the
per-layer metrics.

Build logs go to stderr. A JSON line of host diagnostics (calibration
kernel time, hypervisor steal during each timed call, per-process timings)
precedes the result.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = benchlib.ROOT
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "lens_perfbench"
# After the build, a run must end inside 180 s: no process starts after
# LAUNCH_DEADLINE_S, and every process is killed by RUN_BUDGET_S.
LAUNCH_DEADLINE_S = 100.0
RUN_BUDGET_S = 170.0
MAX_PROCESSES = 64
SETUP_PROCESSES = 9
REQUIRED = ("work", "timed_s", "setup_s", "peak_rss_mb", "quality")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any((BUILD_DIR / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "lens_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return BINARY.exists()


def run_harness(args, started, required=REQUIRED):
    """One harness process; its JSON line, or None if it crashed."""
    try:
        timeout = max(1.0, RUN_BUDGET_S - (time.monotonic() - started))
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"harness timed out: {args}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"harness exited {proc.returncode}: {args}", file=sys.stderr)
        return None
    try:
        run = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"harness printed no result: {args}", file=sys.stderr)
        return None
    # Non-finite numbers arrive as null; a run without its end-to-end numbers failed.
    if not all(isinstance(run.get(k), (int, float)) and run[k] > 0 for k in required):
        print(f"harness result lacks a positive {required}: {args}", file=sys.stderr)
        return None
    return run


def timed_runs(workload, seed, seconds, started):
    """Fresh processes until the timed calls sum to about `seconds`."""
    runs = []
    timed = 0.0
    while len(runs) < MAX_PROCESSES:
        args = ["--workload", workload, "--seed", str(seed), "--phase", "time"]
        if not runs:
            args.append("--deep-check")
        run = run_harness(args, started)
        runs.append(run)
        if run is None:
            break
        timed += run["timed_s"]
        # Stop at the process count that lands nearest to `seconds`.
        if seconds - timed <= run["timed_s"] / 2 or time.monotonic() - started > LAUNCH_DEADLINE_S:
            break
    return runs


def setup_runs(workload, seed, started):
    """Processes that only repeat the set-up and report its fastest repeat."""
    args = ["--workload", workload, "--seed", str(seed), "--phase", "setup"]
    return [run_harness(args, started, required=("setup_s",)) for _ in range(SETUP_PROCESSES)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = benchlib.load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not build():
        print("build failed", file=sys.stderr)
        return 1

    started = time.monotonic()
    setups = []
    if args.trace:
        runs = [run_harness(["--workload", args.workload, "--seed", str(args.seed),
                             "--phase", "trace"], started)]
    else:
        runs = timed_runs(args.workload, args.seed, args.seconds, started)
        setups = setup_runs(args.workload, args.seed, started)
    if not any(runs):
        print("no harness process completed", file=sys.stderr)
        return 1

    ok = [r for r in runs if r is not None]
    diagnostics = {
        "processes": len(runs),
        "calib_ms": [r["calib_ms"] for r in ok],
        "steal_s": [r["steal_s"] for r in ok],
        "timed_s": [r["timed_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok + [r for r in setups if r is not None]],
        "digest": ok[0]["digest"],
        "failures": sorted({f for r in ok for f in r["failures"]}),
    }
    print(json.dumps({"diagnostics": diagnostics}))
    if args.trace:
        result = benchlib.assemble_traced(runs[0], bench)
    else:
        result = benchlib.assemble_timed(runs, setups, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
