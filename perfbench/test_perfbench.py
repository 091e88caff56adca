#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Covers the compare helper's quartile, spread and regression arithmetic
(including an injected 20% slowdown that must be flagged) and the metric
selection run.py applies.  The C++ side's percentile arithmetic is checked
by `amac_perfbench --selftest`, which run.py runs before every workload and
which the last test runs when a build exists.
"""
import os
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = {
    "throughput_ops_s": {"name": "throughput_ops_s", "better": "higher",
                         "bound": 0.1},
    "latency_p50_ms": {"name": "latency_p50_ms", "better": "lower",
                       "bound": 0.15},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def runs(workload, metric, values):
    return [{"workload": workload, "seed": i,
             "result": {"metrics": {metric: {"value": v, "unit": "x"}}}}
            for i, v in enumerate(values)]


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 9.5, 10.5, 13.0, 10.2, 9.9, 11.1, 10.7]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual((q1, med, q3),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(compare.spread(values), (q3 - q1) / 5.5)

    def test_constant_values_have_zero_spread(self):
        self.assertEqual(compare.spread([3.0] * 10), 0.0)


class RegressionTest(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_injected_slowdown_of_20_percent_is_flagged(self):
        slow = [v * 1.2 for v in self.base]
        rows = compare.check(runs("w", "latency_p50_ms", self.base), SPEC,
                             runs("w", "latency_p50_ms", slow))
        self.assertTrue(rows[0][3], rows[0][2])

    def test_throughput_drop_of_20_percent_is_flagged(self):
        slow = [v / 1.2 for v in self.base]
        rows = compare.check(runs("w", "throughput_ops_s", self.base), SPEC,
                             runs("w", "throughput_ops_s", slow))
        self.assertTrue(rows[0][3], rows[0][2])

    def test_change_within_bound_passes(self):
        near = [v * 1.05 for v in self.base]
        rows = compare.check(runs("w", "latency_p50_ms", self.base), SPEC,
                             runs("w", "latency_p50_ms", near))
        self.assertFalse(rows[0][3], rows[0][2])

    def test_improvement_is_not_flagged(self):
        fast = [v * 0.7 for v in self.base]
        rows = compare.check(runs("w", "latency_p50_ms", self.base), SPEC,
                             runs("w", "latency_p50_ms", fast))
        self.assertFalse(rows[0][3])

    def test_wide_spread_is_flagged(self):
        wide = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        for metric in ("latency_p50_ms", "setup_s"):
            self.assertTrue(compare.check(runs("w", metric, wide), SPEC)[0][3],
                            metric)

    def test_worse_by_direction(self):
        self.assertAlmostEqual(compare.worse_by(100, 120, "lower"), 0.2)
        self.assertAlmostEqual(compare.worse_by(100, 80, "higher"), 0.2)
        self.assertLess(compare.worse_by(100, 120, "higher"), 0)


class SelectionTest(unittest.TestCase):
    wanted = [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "count"}]

    def test_untraced_run_needs_every_metric(self):
        found = {"a": {"value": 1.5, "unit": "ms"}}
        _, missing = run.select_metrics(found, self.wanted, 0, "w")
        self.assertEqual(missing, ["b"])

    def test_traced_run_reports_unexercised_as_zero(self):
        found = {"a": {"value": 1.5, "unit": "ms"},
                 "extra": {"value": 2, "unit": "x"}}
        selected, missing = run.select_metrics(found, self.wanted, 1, "w")
        self.assertEqual(missing, [])
        self.assertEqual(selected, {"a": {"value": 1.5, "unit": "ms"},
                                    "b": {"value": 0.0, "unit": "count"}})

    def test_non_finite_value_is_missing(self):
        found = {"a": {"value": float("nan"), "unit": "ms"},
                 "b": {"value": 1, "unit": "count"}}
        _, missing = run.select_metrics(found, self.wanted, 0, "w")
        self.assertEqual(missing, ["a"])


class NativeSelfTest(unittest.TestCase):
    def test_percentile_arithmetic(self):
        binary = run.build_dir() / "amac_perfbench"
        if not binary.exists():
            self.skipTest(f"{binary} not built; run perfbench/run.py first")
        proc = subprocess.run([str(binary), "--selftest"], capture_output=True,
                              text=True, env=dict(os.environ))
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
