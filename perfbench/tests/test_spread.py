"""Tests of the benchmark's Python side: quartile spread, the comparison's
direction and clock rule, and the shape of BENCHMARK.json and
workloads.json. Run with `python3 perfbench/run.py --self-test` or
`python3 -m unittest discover -s perfbench/tests`."""

import json
import os
import re
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import spread  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_matches_statistics(self):
        values = [10.0, 11.0, 9.5, 10.4, 12.0, 9.9, 10.1, 10.8, 9.7, 10.2]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(spread.quartile_spread([5.0] * 10), 0.0)

    def test_worsening_direction(self):
        self.assertAlmostEqual(spread.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(spread.worsening(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(spread.worsening(100, 80, "higher"), 0.20)

    def test_report_spread_gates_every_metric(self):
        steady = {"values": [1.0, 1.01, 0.99, 1.0, 1.02]}
        wide = {"values": [1.0, 2.0, 0.5, 1.5, 3.0]}
        bounds = {"setup_s": 0.25, "throughput_per_s": 0.25}
        self.assertTrue(spread.report_spread(
            "w", {"setup_s": steady, "throughput_per_s": steady}, bounds))
        self.assertFalse(spread.report_spread(
            "w", {"setup_s": wide, "throughput_per_s": steady}, bounds))

    def test_run_timeout_follows_seconds(self):
        serve = {"ladder": [0.5, 1.0], "drain_s": 10}
        self.assertEqual(run.run_timeout(serve, 100),
                         100 + 2 * 10 + run.RUN_MARGIN_S)
        self.assertEqual(run.run_timeout({}, 30), 30 + run.RUN_MARGIN_S)

    def test_parse_seeds(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])

    def test_compare_refuses_mixed_clocks(self):
        wall = {"w": {"m": {"unit": "ms", "clock": "wall", "values": [1.0]}}}
        sim = {"w": {"m": {"unit": "ms", "clock": "sim", "values": [1.0]}}}
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.json"), os.path.join(d, "b.json")
            for path, data in ((a, wall), (b, sim)):
                with open(path, "w") as f:
                    json.dump(data, f)
            spec = {"m": {"better": "lower", "bound": 0.1}}
            with self.assertRaises(SystemExit):
                spread.compare(a, b, spec)
            self.assertTrue(spread.compare(a, a, spec))

    def test_param_flags_join_lists(self):
        self.assertEqual(run.param_flags({"b": [1, 2], "a": 3}),
                         ["--param", "a=3", "--param", "b=1,2"])


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.workloads = load(os.path.join(PERFBENCH, "workloads.json"))

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in e2e.values()))

    def test_workload_records_match(self):
        listed = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(listed), sorted(self.workloads["workloads"]))
        self.assertEqual(sorted(listed), sorted(run.WORKLOADS))
        self.assertNotIn(self.workloads["held_out_seed"],
                         self.workloads["tuning_seeds"])
        for spec in self.workloads["workloads"].values():
            self.assertTrue({"loop", "why", "tail", "params"} <= set(spec))


if __name__ == "__main__":
    unittest.main()
