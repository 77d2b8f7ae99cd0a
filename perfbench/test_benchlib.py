"""Self-tests of the benchmark harness's helpers and metric schema.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent

# Every metric the benchmark's design names (README.md, "Metrics").
END_TO_END = {"work_per_s", "setup_s", "peak_rss_mb", "quality"}
PER_LAYER = {
    "opt.self_s", "opt.gp_fit_ms", "opt.gp_predict_us", "opt.hypervolume_ms",
    "core.accuracy_calls", "core.accuracy_ms", "perf.predict_calls", "perf.predict_ms",
    "core.cache_hit_frac", "core.compile_ms", "core.price_ns", "core.collapse_us",
    "core.collapse_calls", "sim.fault_build_ns", "sim.fault_episodes",
    "sim.fault_query_ns.first_hour", "sim.fault_query_ns.last_hour", "sim.self_s",
    "sim.retries", "sim.fallback_frac", "comm.trace_step_ns", "runtime.tracker_ns",
    "runtime.select_ns", "cloud.place_step_us", "cloud.place_step_calls", "cloud.admit_ns",
    "fleet.self_ns", "fleet.bytes_per_device", "fleet.degraded_frac", "fog.shed_frac",
}
WORKLOADS = {"search_mobo", "fleet_faulty_1m", "fleet_regional", "serve_events_12h"}


def harness_output(**overrides):
    run = {"work": 100.0, "timed_s": 2.0, "setup_s": 0.001, "peak_rss_mb": 50.0,
           "quality": 0.5, "digest": "00000000000000aa", "failures": [], "calib_ms": 7.0,
           "layers": {}}
    run.update(overrides)
    return run


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(benchlib.quartiles(list(range(1, 11))), (2.75, 8.25))
        self.assertEqual(benchlib.quartiles([5.0] * 10), (5.0, 5.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchlib.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)


class SchemaTest(unittest.TestCase):
    def setUp(self):
        self.bench = benchlib.load_benchmark()

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        self.assertEqual({w["name"] for w in self.bench["workloads"]}, WORKLOADS)

    def test_names_and_units(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for m in self.bench[section]:
                names.append(m["name"])
                self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
                self.assertRegex(m["name"], benchlib.NAME_RE)
                self.assertRegex(m.get("unit", ""), benchlib.UNIT_RE, m["name"])
                self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "metric and workload names are unique")

    def test_bounds(self):
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in self.bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def test_every_named_metric_is_declared(self):
        self.assertEqual({m["name"] for m in self.bench["end_to_end"]}, END_TO_END)
        self.assertLessEqual(PER_LAYER, {m["name"] for m in self.bench["per_layer"]})

    def test_every_trace_writes_every_per_layer_metric(self):
        # Each workload's trace() writes every per-layer metric itself (0 for a
        # layer it never calls, through not_called()); main() adds
        # trace.work_per_s. A metric a trace() leaves out is absent from the
        # harness output, and assemble_traced then fails the run.
        source = (HERE / "harness.cpp").read_text()
        declared = {m["name"] for m in self.bench["per_layer"]}
        main_body = trace_bodies(source, r"int main\(")
        self.assertEqual(len(main_body), 1)
        from_main = written(main_body[0])
        self.assertEqual(from_main, {"trace.work_per_s"})
        bodies = trace_bodies(source, r"void (?:\w+::)?trace\(double run_s[^)]*\)(?: override)? \{")
        self.assertEqual(len(bodies), 3, "one trace() per workload class")
        for body in bodies:
            self.assertEqual(written(body) | from_main, declared)


def trace_bodies(source, head):
    """Brace-matched bodies of the functions whose heading matches `head`."""
    bodies = []
    for match in re.finditer(head, source):
        start = source.index("{", match.start())
        depth = 0
        for i in range(start, len(source)):
            depth += {"{": 1, "}": -1}.get(source[i], 0)
            if depth == 0:
                bodies.append(source[start:i + 1])
                break
    return bodies


def written(body):
    """Per-layer names a function body writes: layers["..."] and not_called()."""
    names = set(re.findall(r'layers\["([^"]+)"\]', body))
    for listed in re.findall(r"not_called\(layers, \{(.*?)\}\);", body, re.S):
        names |= set(re.findall(r'"([^"]+)"', listed))
    return names


class AssemblyTest(unittest.TestCase):
    def setUp(self):
        self.bench = benchlib.load_benchmark()

    def test_timed_result_has_every_end_to_end_metric(self):
        result = benchlib.assemble_timed([harness_output(), harness_output(timed_s=3.0)], [],
                                         self.bench)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), END_TO_END)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 0))
        self.assertAlmostEqual(result["metrics"]["work_per_s"]["value"], 50.0)
        for metric in result["metrics"].values():
            self.assertTrue(metric["unit"])

    def test_failed_check_crash_and_digest_mismatch_count_as_failures(self):
        runs = [harness_output(), harness_output(failures=["fleet: offered != admitted + shed"]),
                harness_output(digest="00000000000000bb"), None]
        result = benchlib.assemble_timed(runs, [{"setup_s": 0.001}, None], self.bench)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (6, 4))

    def test_traced_result_has_every_per_layer_metric(self):
        names = [m["name"] for m in self.bench["per_layer"]]
        run = harness_output(layers={n: 1.0 for n in names})
        result = benchlib.assemble_traced(run, self.bench)
        self.assertEqual(set(result["metrics"]), set(names))
        self.assertTrue(result["correct"])

    def test_traced_result_fails_on_a_missing_per_layer_metric(self):
        names = [m["name"] for m in self.bench["per_layer"]]
        run = harness_output(layers={n: 1.0 for n in names[1:]})
        result = benchlib.assemble_traced(run, self.bench)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))

    def test_setup_is_the_fastest_over_every_process(self):
        runs = [harness_output(setup_s=v) for v in (0.005, 0.003)]
        setups = [{"setup_s": v} for v in (0.004, 0.002, 0.006)]
        result = benchlib.assemble_timed(runs, setups, self.bench)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.002)


if __name__ == "__main__":
    unittest.main()
