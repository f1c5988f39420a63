"""Tests of e2ebench/run.py's parsing and gating helpers.

    python3 -m unittest discover -s e2ebench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


class ParseMetricLines(unittest.TestCase):
    def test_parses_name_value_unit_and_samples(self):
        lines = [
            "host nproc=4 simd=avx2",
            "metric latency_p50_ms 76.619312 ms n=52",
            "metric points_per_s 5.68223139e+06 1/s n=23068672",
            "metric nn.stage_ms.mlp 0 ms n=0",
        ]
        self.assertEqual(run.parse_metric_lines(lines), {
            "latency_p50_ms": (76.619312, "ms", 52),
            "points_per_s": (5682231.39, "1/s", 23068672),
            "nn.stage_ms.mlp": (0.0, "ms", 0),
        })

    def test_ignores_malformed_and_foreign_lines(self):
        lines = [
            "metric too few fields",
            "metric x notanumber ms n=1",
            "metric y 1.0 ms count=1",
            "metrics z 1.0 ms n=1",
            "span layer count",
        ]
        self.assertEqual(run.parse_metric_lines(lines), {})

    def test_later_line_wins(self):
        lines = ["metric a 1 ms n=1", "metric a 2 ms n=3"]
        self.assertEqual(run.parse_metric_lines(lines)["a"], (2.0, "ms", 3))


class Counters(unittest.TestCase):
    def test_parse_counter_lines(self):
        lines = [
            "counter lidar-pointops 1 ops.bytes_gathered 11639248",
            "counter lidar-pointops 1 partition.num_blocks 3338",
            "counter lidar-pointops 7 partition.num_blocks 3000",
            "counter broken line",
        ]
        self.assertEqual(run.parse_counter_lines(lines), {
            ("lidar-pointops", "1"): {"ops.bytes_gathered": 11639248,
                                      "partition.num_blocks": 3338},
            ("lidar-pointops", "7"): {"partition.num_blocks": 3000},
        })

    def test_drift_reports_count_changes(self):
        self.assertEqual(run.counter_drift({"a": 5, "b": 2}, {"a": 5, "b": 2}), [])
        self.assertEqual(run.counter_drift({"a": 5, "b": 2}, {"a": 7, "b": 2}),
                         ["a 5 -> 7 (+2)"])
        self.assertEqual(run.counter_drift({"a": 5}, {}), ["a 5 -> None"])

    def test_gate_checks_only_recorded_seeds_at_the_recorded_level(self):
        gate = {"simd": "avx2", "counters": {"w": {"1": {"a": 1}}}}
        counted = {("w", "1"): {"a": 2}, ("w", "5"): {"a": 9}}
        self.assertEqual(run.gate_counters(gate, "w", counted, "avx2"),
                         ["counter drift on w seed 1: a 1 -> 2 (+1)"])
        self.assertEqual(run.gate_counters(gate, "w", counted, "scalar"), [])
        self.assertEqual(run.gate_counters(gate, "other", counted, "avx2"), [])


class ResultObject(unittest.TestCase):
    def test_keeps_only_wanted_metrics(self):
        metrics = {"a": (1.5, "ms", 10), "b": (2.0, "s", 1)}
        self.assertEqual(run.result_object(metrics, ["b"], 10, 0, True), {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"b": {"value": 2.0, "unit": "s"}}})

    def test_missing_metric_raises(self):
        with self.assertRaises(KeyError):
            run.result_object({}, ["a"], 1, 0, True)


class Documents(unittest.TestCase):
    """BENCHMARK.json, metrics.json and counters.json agree."""

    def load(self, *parts):
        with open(os.path.join(*parts)) as f:
            return json.load(f)

    def test_every_benchmark_metric_is_documented_alike(self):
        bench = self.load(run.ROOT, "BENCHMARK.json")
        docs = {m["name"]: m for m in self.load(run.HERE, "metrics.json")["metrics"]}
        for kind in ("end_to_end", "per_layer"):
            for m in bench[kind]:
                self.assertIn(m["name"], docs)
                self.assertEqual(docs[m["name"]]["kind"], kind)
                self.assertEqual(docs[m["name"]]["unit"], m["unit"])
                self.assertEqual(docs[m["name"]]["better"], m["better"])

    def test_counters_cover_every_workload_and_both_seeds(self):
        bench = self.load(run.ROOT, "BENCHMARK.json")
        gate = self.load(run.COUNTERS)
        for w in bench["workloads"]:
            seeds = gate["counters"][w["name"]]
            self.assertIn(str(gate["dev_seed"]), seeds)
            self.assertIn(str(gate["held_out_seed"]), seeds)


if __name__ == "__main__":
    unittest.main()
