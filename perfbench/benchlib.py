"""Helpers shared by run.py, steady.py and the self-tests: statistics, the
metric schema read from BENCHMARK.json, and assembly of harness process
outputs into the one-line result."""

import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def load_benchmark(root=ROOT):
    with open(Path(root) / "BENCHMARK.json") as f:
        return json.load(f)


def units(bench, section):
    return {m["name"]: m["unit"] for m in bench[section]}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def assemble_timed(runs, setups, bench):
    """Result line of an untraced run from its harness processes.

    `runs` holds one entry per timed process and `setups` one per set-up-only
    process: the harness JSON, or None when the process crashed.
    `work_per_s` comes from the fastest timed process: interference from
    other tenants of a shared host only ever slows a process down, so the
    best process is the steadiest estimate of the program's own speed. For
    the same reason each process reports its fastest set-up repeat, and
    `setup_s` is the fastest of those over all processes; peak RSS is the
    median over the timed processes. Every process of a run uses the same
    seed, so its output digest and quality must match the first process's
    exactly.
    """
    ok = [r for r in runs if r is not None]
    setup_ok = [r for r in setups if r is not None]
    failed = len(runs) - len(ok) + len(setups) - len(setup_ok)
    reference = ok[0]
    for r in ok:
        same = r["digest"] == reference["digest"] and r["quality"] == reference["quality"]
        if r["failures"] or not same:
            failed += 1
    u = units(bench, "end_to_end")
    metrics = {
        "work_per_s": _metric(max(r["work"] / r["timed_s"] for r in ok), u["work_per_s"]),
        "setup_s": _metric(min(r["setup_s"] for r in ok + setup_ok), u["setup_s"]),
        "peak_rss_mb": _metric(median([r["peak_rss_mb"] for r in ok]), u["peak_rss_mb"]),
        "quality": _metric(reference["quality"], u["quality"]),
    }
    return {"correct": failed == 0, "attempted": len(runs) + len(setups), "failed": failed,
            "metrics": metrics}


def assemble_traced(run, bench):
    """Result line of a traced run: every per-layer metric from one process."""
    u = units(bench, "per_layer")
    values = run["layers"]
    missing = [name for name in u if values.get(name) is None]  # absent or non-finite
    failed = 1 if run["failures"] or missing else 0
    metrics = {name: _metric(values.get(name) or 0.0, unit) for name, unit in u.items()}
    return {"correct": failed == 0, "attempted": 1, "failed": failed, "metrics": metrics}
