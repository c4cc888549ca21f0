"""Tests for the benchmark's metric derivations (perfbench/metrics.py).

    python3 perfbench/test_metrics.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def span(name, start, end, parent=-1, items=1):
    return [name, start, end, parent, items]


class Percentiles(unittest.TestCase):
    def test_median_reports_sample_count(self):
        self.assertEqual(metrics.quantile([5, 1, 9, 3, 7], 0.5), (5, 5))

    def test_interpolates_between_ranks(self):
        value, n = metrics.quantile([10, 20], 0.25)
        self.assertAlmostEqual(value, 12.5)
        self.assertEqual(n, 2)

    def test_p90_of_100_samples_has_ten_beyond(self):
        value, n, beyond = metrics.tail(list(range(1, 101)), 0.90)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual((n, beyond), (100, 10))

    def test_p90_of_few_samples_has_too_few_beyond(self):
        self.assertLess(metrics.tail(list(range(20)), 0.90)[2], 10)

    def test_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            metrics.quantile([], 0.5)
        with self.assertRaises(ValueError):
            metrics.quantile([1], 1.5)


class Ratios(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        self.assertEqual(metrics.ratio(3, 4), (0.75, 4))

    def test_zero_base_is_zero_not_an_error(self):
        self.assertEqual(metrics.ratio(5, 0), (0.0, 0))


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        s = metrics.Spans([
            span("rep", 0, 100),
            span("a", 10, 30, 0),
            span("b", 20, 40, 0),   # overlaps a: counted once
            span("c", 90, 120, 0),  # clipped to the parent's end
        ])
        self.assertEqual(s.self_ns(0), 100 - 30 - 10)

    def test_leaf_self_time_is_its_duration(self):
        s = metrics.Spans([span("rep", 0, 100), span("a", 10, 30, 0)])
        self.assertEqual(s.self_ns(1), 20)

    def test_grandchildren_do_not_count_against_the_root(self):
        s = metrics.Spans([
            span("rep", 0, 100),
            span("setup", 0, 50, 0),
            span("build", 10, 20, 1),
        ])
        self.assertEqual(s.self_ns(0), 50)
        self.assertEqual(s.self_ns(1), 40)

    def test_named_filters_by_root(self):
        s = metrics.Spans([
            span("rep", 0, 10), span("slice", 1, 2, 0),
            span("rep_traced", 20, 30), span("slice", 21, 22, 2),
        ])
        self.assertEqual(s.named("slice", {"rep"}), [1])
        self.assertEqual(s.named("slice"), [1, 3])


class Calibration(unittest.TestCase):
    def test_slice_scaled_by_calibration_around_it(self):
        ms = 1_000_000
        s = metrics.Spans([
            span("calib", 0, 2 * ms),
            span("slice", 2 * ms, 22 * ms),
            span("calib", 22 * ms, 26 * ms),
        ])
        # 20 ms measured next to calibrations of 2 ms and 4 ms (mean 3).
        self.assertAlmostEqual(s.calibrated_ms([1])[0], 20 / 3 * metrics.CALIBRATION_MS)

    def test_uncalibrated_span_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.Spans([span("slice", 0, 10)]).calibrated_ms([0])


def synthetic_run(workload="hidden_tora", slices=120, traced=False):
    """A raw driver report shaped like a single-run workload's."""
    ms = 1_000_000
    spans, t = [], 0
    spans.append(span("setup_rep", t, t + ms))
    spans.append(span("setup", t, t + ms, 0))
    t += ms
    for root in ("rep", "rep_traced") if traced else ("rep",):
        rep = len(spans)
        spans.append(span(root, t, t + 10_000 * ms))
        for i in range(slices):
            spans.append(span("calib", t, t + ms, rep))
            t += ms
            spans.append(span("slice", t, t + (10 + i % 10) * ms, rep))
            t += 20 * ms
        spans.append(span("calib", t, t + ms, rep))
        t += 10_000 * ms
    values = {"peak_rss_kb": 2048.0, "goodput_mbps": 18.5}
    samples = {"rep_cpu_s": [1.0]}
    if traced:
        entries = len(spans)
        spans.append(span("entries", t, t + 50 * ms))
        for name in ("store", "lookup", "append"):
            spans.append(span(name, t, t + ms, entries))
        spans.append(span("replay", t, t + 4 * ms, entries, 2))
        values.update({"sim.queue.scheduled": 10.0, "sim.queue.fired": 4.0,
                       "mac.successes": 2.0, "mac.failures": 2.0,
                       "profile.medium.wall_ns": 3.0, "profile.other.wall_ns": 1.0})
        samples.update({k: [1.0, 3.0, 2.0] for k in (
            "sim.churn_ns_per_event", "sim.cancel_ns_per_event",
            "phy.dense_ns_per_tx")})
    return {"info": {"workload": workload}, "values": values,
            "samples": samples, "checks": [], "attempted": 2,
            "failed": 0, "spans": spans}


class EndToEnd(unittest.TestCase):
    UNITS = {"slice_ms_p50": "ms", "slice_ms_p90": "ms", "setup_s": "s",
             "peak_rss_mb": "MB", "goodput_mbps": "Mb/s", "cpu_s": "s"}

    def test_reports_exactly_the_listed_metrics(self):
        out = metrics.end_to_end(synthetic_run(), self.UNITS)
        self.assertEqual(set(out), set(self.UNITS))
        self.assertAlmostEqual(out["slice_ms_p50"][0], 14.5)
        self.assertEqual(out["peak_rss_mb"], (2.0, "MB"))
        self.assertAlmostEqual(out["cpu_s"][0], 1.0)

    def test_refuses_a_p90_without_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            metrics.end_to_end(synthetic_run(slices=50), self.UNITS)


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json stays within the limits of its format."""

    def setUp(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_keys_and_limits(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[k]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_every_per_layer_metric_is_derived(self):
        units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        out = metrics.per_layer(synthetic_run(traced=True), units)
        self.assertEqual(set(out), set(units))
        self.assertEqual(out["sim.schedules_per_event"], (2.5, "ratio"))
        self.assertEqual(out["phy.medium_share"], (0.75, "ratio"))
        self.assertEqual(out["exp.replay_us"], (2000.0, "us"))
        self.assertEqual(out["sim.churn_ns_per_event"], (2.0, "ns"))
        self.assertEqual(out["obs.trace_overhead"], (0.0, "ratio"))


if __name__ == "__main__":
    unittest.main()
