"""Tests of the benchmark's own statistics code (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def raw_report(n_runs=200):
    samples = {"run_ms": [float(i + 1) for i in range(n_runs)],
               "setup_s": [0.3, 0.1, 0.2],
               "window.sim_samples_per_s": [1e6] * 40,
               "window.runs_per_s": [50.0] * 40}
    return {"samples": samples, "values": {"peak_rss_mb": 12.5},
            "ops": {"run": {"attempted": n_runs, "failed": 0},
                    "check": {"attempted": 4, "failed": 0}}}


def traced_report(n_runs=200):
    """A traced run's raw report: every per-layer input present."""
    raw = raw_report(n_runs)
    s, v = raw["samples"], raw["values"]
    for name, how in stats.PER_LAYER.items():
        if how == "value":
            v[name] = 1.0
        else:
            s[name] = [1.0, 2.0, 3.0]
    v.update({"loop.runs": 100.0, "loop.samples": 4000.0, "loop.seconds": 10.0,
              "loop.workers": 4.0, "tdf.module.activations": 800.0,
              "tdf.module.block_firings": 600.0})
    s["core.build_s"] = [0.010, 0.012, 0.011]
    s["core.elaborate_s"] = [0.020, 0.018, 0.019]
    s["core.run_s"] = [0.25, 0.20, 0.30]
    s["traced.core.build_s"] = [0.011, 0.013, 0.012]
    s["traced.core.elaborate_s"] = [0.024, 0.022, 0.023]
    s["traced.core.run_s"] = [0.50, 0.40, 0.60]
    return raw


class PercentileRule(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(stats.beyond(100, 90.0), 10)
        self.assertEqual(stats.beyond(99, 90.0), 9)
        self.assertEqual(stats.beyond(1000, 99.0), 10)
        self.assertEqual(stats.beyond(20, 50.0), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertEqual(stats.highest_percentile(99), 50.0)
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(999), 90.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(10000), 99.9)

    def test_percentile_refuses_too_few_samples(self):
        with self.assertRaises(stats.MetricError):
            stats.percentile([1.0] * 99, 90.0)
        with self.assertRaises(stats.MetricError):
            stats.percentile([], 50.0)

    def test_percentile_values(self):
        xs = [float(i) for i in range(1, 101)]  # 1..100, shuffled order
        xs.reverse()
        self.assertEqual(stats.percentile(xs, 90.0), 90.0)
        self.assertEqual(stats.percentile(xs, 50.0), 50.0)
        self.assertEqual(stats.median([3.0, 1.0, 2.0, 10.0]), 2.5)


class NameValidation(unittest.TestCase):
    def test_accepts_legal_names(self):
        for name in ("setup_s", "wire.result.encode_us", "tdf.cluster.fused_cycles",
                     "trace_overhead.run_p90_ms", "9lives", "a-b"):
            self.assertEqual(stats.validate_name(name), name)

    def test_rejects_illegal_names(self):
        for name in ("", "has space", "slash/name", ".leading_dot", "_leading", "x" * 65,
                     "tab\tname", "é", None, 3):
            with self.assertRaises(stats.MetricError, msg=repr(name)):
                stats.validate_name(name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB"):
            stats.validate_unit(unit)
        for unit in ("", "a b", "x" * 17):
            with self.assertRaises(stats.MetricError):
                stats.validate_unit(unit)

    def test_benchmark_json_names_and_specs(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not beside perfbench/")
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
        names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            stats.validate_name(name)
        # Every listed metric is one the reduction produces.
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         set(stats.end_to_end(raw_report())))
        layer = set(stats.PER_LAYER) | set(stats.DERIVED)
        layer |= {"trace_overhead." + n for n in stats.OVERHEAD_OF}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, layer)
        self.assertEqual(set(stats.per_layer(traced_report())), layer)


class ErrorRate(unittest.TestCase):
    def test_sums_every_category(self):
        ops = {"run": {"attempted": 90, "failed": 2},
               "session": {"attempted": 8, "failed": 1},
               "check": {"attempted": 2, "failed": 1}}
        self.assertEqual(stats.error_rate(ops), (100, 4, 0.04))

    def test_zero_when_all_pass(self):
        self.assertEqual(stats.error_rate({"slice": {"attempted": 7, "failed": 0}}),
                         (7, 0, 0.0))

    def test_rejects_empty_or_inconsistent(self):
        with self.assertRaises(stats.MetricError):
            stats.error_rate({})
        with self.assertRaises(stats.MetricError):
            stats.error_rate({"run": {"attempted": 1, "failed": 2}})


class Reduction(unittest.TestCase):
    def test_end_to_end(self):
        m = stats.end_to_end(raw_report())
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["run_p50_ms"], 100.5)
        self.assertEqual(m["peak_rss_mb"], 12.5)
        self.assertNotIn("run_p90_ms", m)

    def test_throughput_is_the_upper_quartile_of_windows(self):
        raw = raw_report()
        raw["samples"]["window.runs_per_s"] = [float(i) for i in range(1, 41)]
        self.assertEqual(stats.end_to_end(raw)["runs_per_s"], 30.0)
        raw["samples"]["window.runs_per_s"] = [1.0] * 39  # 9 beyond p75
        with self.assertRaises(stats.MetricError):
            stats.end_to_end(raw)

    def test_p90_needs_enough_runs(self):
        with self.assertRaises(stats.MetricError):
            stats.per_layer(traced_report(n_runs=50))

    def test_reductions_and_ratios(self):
        m = stats.per_layer(traced_report())
        self.assertEqual(m["server.samples_dropped"], 6.0)
        self.assertEqual(m["server.max_queue_depth"], 3.0)
        self.assertEqual(m["wire.result.encode_us"], 2.0)
        self.assertEqual(m["error_rate"], 0.0)
        # busy_frac = runs x mean core.run_s / (seconds x workers), with its base.
        self.assertEqual(m["core.backend.capacity_s"], 40.0)
        self.assertAlmostEqual(m["core.backend.busy_frac"], 100 * 0.25 / 40.0)
        self.assertEqual(m["tdf.block_firing_frac"], 0.75)
        self.assertAlmostEqual(m["tdf.ns_per_firing"], 0.25e9 / 800.0)

    def test_ratios_are_zero_without_a_base(self):
        raw = traced_report()
        raw["values"]["tdf.module.activations"] = 0.0
        m = stats.per_layer(raw)
        self.assertEqual(m["tdf.block_firing_frac"], 0.0)
        self.assertEqual(m["tdf.ns_per_firing"], 0.0)

    def test_tracing_overhead_is_traced_minus_untraced_replay(self):
        m = stats.per_layer(traced_report())
        self.assertAlmostEqual(m["trace_overhead.setup_s"], 0.035 - 0.030)
        self.assertAlmostEqual(m["trace_overhead.run_p50_ms"], 250.0)
        self.assertAlmostEqual(m["trace_overhead.runs_per_s"], 2.0 - 4.0)
        # 40 samples per main-loop run.
        self.assertAlmostEqual(m["trace_overhead.sim_samples_per_s"], 40.0 * (2.0 - 4.0))


if __name__ == "__main__":
    unittest.main()
