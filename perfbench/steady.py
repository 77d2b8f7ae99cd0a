#!/usr/bin/env python3
"""Steadiness check: runs run.py once per seed on each workload and reports,
per end-to-end metric, the median, the quartiles and their spread
(IQR / median) against the metric's bound from BENCHMARK.json.

  python3 perfbench/steady.py --seeds 1-10 [--workload NAME ...]

Every run uses BENCHMARK.json's run_seconds. With --seeds 1 it is the one
command that prints every workload's end-to-end metrics with their units and
runs every output check.

A spread above a third of its metric's bound is flagged, and so is a failed
output check; either makes the exit code 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(benchlib.ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def main():
    bench = benchlib.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    values = {}
    bad = 0
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            diagnostics, result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                bad += 1
                print(f"{workload} seed {seed}: output check failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={m['value']:.6g} {m['unit']}"
                           for k, m in result["metrics"].items()) +
                  f" calib_ms={benchlib.median(diagnostics['calib_ms']):.3f}"
                  f" steal_s={sum(diagnostics['steal_s']):.2f}", flush=True)

    if len(parse_seeds(args.seeds)) < 2:  # quartiles need two runs
        return 1 if bad else 0

    print(f"\n{'workload':18} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload, metrics in values.items():
        for metric in bench["end_to_end"]:
            name = metric["name"]
            v = metrics[name]
            q1, q3 = benchlib.quartiles(v)
            s = benchlib.spread(v)
            verdict = "ok" if s < metric["bound"] / 3 else "NOISY"
            if verdict == "NOISY":
                bad += 1
            print(f"{workload:18} {name:12} {benchlib.median(v):12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:8.4f} {metric['bound']:6.3f}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
