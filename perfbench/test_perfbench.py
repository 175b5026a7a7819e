#!/usr/bin/env python3
"""Self-tests of the benchmark's own helpers: percentile ranks, the
ten-samples-beyond rule, error counting, metric derivation and metric-name
validation against BENCHMARK.json, and the diff printer.

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import diff  # noqa: E402
import metrics  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)

REPORT_FIELDS = (
    "wall_ns", "ecalls", "transition_cycles", "mutex_parks", "mutex_park_ns",
    "edmm_pages_added", "arena_bytes", "pool_hits", "pool_misses", "morsels",
    "morsel_steals", "bytes_materialized", "partitions_evicted",
    "partitions_reloaded", "storage_prefetch_loads", "storage_decrypt_bytes",
    "storage_pin_waits",
    "txn_commits", "txn_versions_created", "txn_cow_bytes")


def query(latency_ms, ok=True, correct=True, traced=False, served=False):
    r = {"kind": "q", "query": 6, "client": 0, "latency_ns": latency_ms * 1e6,
         "ok": int(ok), "correct": int(correct), "count": 100}
    if traced:
        report = {f: 1.0 for f in REPORT_FIELDS}
        report["wall_ns"] = latency_ms * 1e6
        report["phases"] = [{"filter_l_shipdate": 1e6},
                            {"q6.sum_lineitem": 2e6}]
        r["detail"] = {
            "report": report,
            "plan": {"decide_ns": 5000, "fused": 1, "root_est_rows": 200},
        }
        if served:
            r["detail"].update(queue_ns=1e5, exec_ns=latency_ms * 1e6,
                               granted_threads=2)
    return r


def batch(latency_ms, ok=True, traced=False):
    detail = {"late_ns": 1e5}
    if traced:
        detail.update(queue_ns=1e4, exec_ns=2e5,
                      report={f: 0.0 for f in REPORT_FIELDS})
    return {"kind": "u", "query": 0, "client": 0,
            "latency_ns": latency_ms * 1e6, "ok": int(ok),
            "correct": int(ok), "count": 20 if ok else 0, "detail": detail}


def doc(windows, checks=()):
    return {"setup_s": [1.0, 2.0, 3.0], "generate_s": [0.4, 0.5, 0.6],
            "build_s": [], "peak_rss_mb": 400.0,
            "enclave_heap_peak_mb": 300.0, "facts": {},
            "checks": [{"what": w, "ok": int(ok)} for w, ok in checks],
            "windows": windows, "spans": []}


def window(requests, traced=False, elapsed_s=10.0, extra=None):
    return {"traced": int(traced), "elapsed_s": elapsed_s,
            "extra": extra or {}, "requests": requests}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 95), 95)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile(list(reversed(values)), 1), 1)

    def test_rank_rounds_up(self):
        self.assertEqual(metrics.percentile_rank(10, 95), 10)
        self.assertEqual(metrics.percentile_rank(199, 95), 190)
        self.assertEqual(metrics.percentile_rank(1, 50), 1)
        self.assertEqual(metrics.percentile([7.5], 99), 7.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile_rank(0, 50)


class SamplesBeyondTest(unittest.TestCase):
    def test_two_hundred_samples_support_p95(self):
        self.assertEqual(metrics.samples_beyond(200, 95), 10)
        self.assertTrue(metrics.supports_percentile(200, 95))

    def test_fewer_do_not(self):
        self.assertEqual(metrics.samples_beyond(199, 95), 9)
        self.assertFalse(metrics.supports_percentile(199, 95))
        self.assertFalse(metrics.supports_percentile(0, 95))

    def test_p99_needs_a_thousand(self):
        self.assertFalse(metrics.supports_percentile(999, 99))
        self.assertTrue(metrics.supports_percentile(1000, 99))


class ErrorCountTest(unittest.TestCase):
    def test_counts_failed_rejected_and_wrong(self):
        d = doc([window([query(1), query(1, ok=False),
                         query(1, correct=False), batch(1),
                         batch(1, ok=False)])],
                checks=[("reference", True), ("final snapshot", False)])
        attempted, failed = metrics.error_counts(d)
        self.assertEqual((attempted, failed), (7, 4))
        self.assertAlmostEqual(metrics.error_rate(attempted, failed), 4 / 7)

    def test_all_clean(self):
        d = doc([window([query(1)] * 5)], checks=[("reference", True)])
        self.assertEqual(metrics.error_counts(d), (6, 0))
        self.assertEqual(metrics.error_rate(6, 0), 0.0)


class MetricSetTest(unittest.TestCase):
    def test_end_to_end_matches_spec(self):
        d = doc([window([query(float(i)) for i in range(1, 201)])])
        computed = metrics.end_to_end(d)
        self.assertEqual(
            metrics.validate_metrics(computed, SPEC["end_to_end"]), [])
        self.assertAlmostEqual(computed["qps"][0], 20.0)
        self.assertEqual(computed["latency_p50_ms"][0], 100.0)
        self.assertEqual(computed["latency_p95_ms"][0], 190.0)
        self.assertEqual(computed["setup_s"], (2.0, 3))

    def test_per_layer_matches_spec_with_and_without_writer(self):
        plain = doc([window([query(10)] * 20),
                     window([query(10, traced=True)] * 10, traced=True)])
        served = doc([window([query(10), batch(1), batch(3)],
                             extra={"writer_window_s": 2.0}),
                      window([query(10, traced=True, served=True),
                              batch(2, traced=True)], traced=True,
                             extra={"writer_window_s": 2.0,
                                    "versions_created": 40,
                                    "cow_bytes": 1 << 20, "rejected": 0,
                                    "retired_pending_max": 5})])
        for d in (plain, served):
            computed = metrics.per_layer(d, *metrics.error_counts(d))
            self.assertEqual(
                metrics.validate_metrics(computed, SPEC["per_layer"]), [])
        computed = metrics.per_layer(served, *metrics.error_counts(served))
        self.assertEqual(computed["commit_rows_per_s"][0], 20.0)
        self.assertEqual(computed["commit_p99_ms"][0], 3.0)
        self.assertEqual(computed["txn.versions_per_s"][0], 20.0)
        self.assertEqual(computed["exec.fused_ms"][0], 2.0)
        self.assertEqual(computed["scan.filter_ms"][0], 1.0)
        self.assertEqual(computed["tpch.phase_residual_ms"][0], 7.0)
        self.assertEqual(computed["plan.root_qerror_p50"][0], 2.0)

    def test_missing_extra_and_non_finite_names_are_reported(self):
        spec = [{"name": "qps"}, {"name": "setup_s"}]
        problems = metrics.validate_metrics(
            {"qps": (math.nan, 1), "bogus": (1.0, 1)}, spec)
        self.assertIn("missing metric setup_s", problems)
        self.assertIn("unexpected metric bogus", problems)
        self.assertTrue(any("qps is not a finite" in p for p in problems))


class MergeTest(unittest.TestCase):
    def test_processes_pool_into_one_run(self):
        a = doc([window([query(1)] * 3, elapsed_s=2.0,
                        extra={"writer_window_s": 2.0,
                               "retired_pending_max": 7})])
        b = doc([window([query(1)] * 5, elapsed_s=3.0,
                        extra={"writer_window_s": 3.0,
                               "retired_pending_max": 4})],
                checks=[("final snapshot", True)])
        a["facts"] = {"versions_created": 10, "compression_ratio": 2.0}
        b["facts"] = {"versions_created": 5, "compression_ratio": 2.0}
        b["enclave_heap_peak_mb"] = 310.0
        merged = metrics.merge([a, b])
        w = merged["windows"][0]
        self.assertEqual(len(w["requests"]), 8)
        self.assertEqual(w["elapsed_s"], 5.0)
        self.assertEqual(w["extra"], {"writer_window_s": 5.0,
                                      "retired_pending_max": 7})
        self.assertEqual(merged["setup_s"], [1.0, 2.0, 3.0] * 2)
        self.assertEqual(merged["facts"], {"versions_created": 15,
                                           "compression_ratio": 2.0})
        self.assertEqual(merged["enclave_heap_peak_mb"], 310.0)
        self.assertEqual(len(merged["checks"]), 1)
        self.assertEqual(metrics.end_to_end(merged)["qps"], (8 / 5.0, 8))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        self.assertEqual(metrics.validate_spec(SPEC), [])
        self.assertIn("setup_s", {m["name"] for m in SPEC["end_to_end"]})
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_bad_and_duplicate_names_are_reported(self):
        spec = {"workloads": [{"name": "a"}],
                "end_to_end": [{"name": "a", "unit": "s"},
                               {"name": "-x", "unit": "ms"}],
                "per_layer": [{"name": "b", "unit": "bad unit"}]}
        problems = metrics.validate_spec(spec)
        self.assertEqual(len(problems), 3)


class DiffTest(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        base = {("w", 1): {"m": [1.0, 2.0, 3.0]}}
        change = {("w", 1): {"m": [4.0]}}
        lines = diff.diff(base, change, {"m": "ms"})
        self.assertIn("2.0000", lines[-1])
        self.assertIn("2.000x", lines[-1])
        self.assertEqual(diff.ratio_text(0, 0).strip(), "same")


if __name__ == "__main__":
    unittest.main()
