"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s diffbench/tests
"""

import json
import math
import os
import re
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        for n, want in ((20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
                        (10000, 99.9)):
            p, _, count = harness.tail_percentile(list(range(n)))
            self.assertEqual((p, count), (want, n), f"n = {n}")

    def test_too_few_samples_report_no_percentile(self):
        self.assertEqual(harness.tail_percentile(list(range(19))), (None, None, 19))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(harness.percentile(values, 50), 50)
        self.assertEqual(harness.percentile(values, 90), 90)
        self.assertEqual(harness.percentile(values, 100), 100)


class FailedRequests(unittest.TestCase):
    def test_refused_non_200_and_connection_errors_fail(self):
        records = [("mine_primed", 200, 5_000_000), ("mine_novel", 429, 1_000),
                   ("check", 500, 1_000), ("check", 503, 1_000), ("mine_primed", 0, 1_000),
                   ("check", 400, 1_000)]
        summary = harness.summarize_requests(records)
        self.assertEqual(summary["attempted"], 6)
        self.assertEqual(summary["failed"], 5)
        self.assertEqual(summary["ok"], 1)

    def test_failed_requests_miss_every_percentile(self):
        # Fast failures must not make the latency look better: they
        # enter the sample as +inf.
        records = [("check", 200, 10_000_000)] * 40 + [("check", 0, 1)] * 60
        summary = harness.summarize_requests(records)
        self.assertTrue(math.isinf(summary["p50_ms"]))
        self.assertEqual(sum(math.isinf(v) for v in summary["latencies_ms"]), 60)
        ok = harness.summarize_requests([("check", 200, 10_000_000)] * 40)
        self.assertEqual(ok["p50_ms"], 10.0)

    def test_sample_lines_round_trip(self):
        text = "mine_primed 200 5123456\ncheck 0 42\n"
        self.assertEqual(harness.parse_samples(text),
                         [("mine_primed", 200, 5123456), ("check", 0, 42)])


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_names_use_the_allowed_alphabet(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(harness.valid_name(name), name)
        self.assertFalse(harness.valid_name("bad name"))
        self.assertFalse(harness.valid_name("_leading"))

    def test_probe_reports_exactly_the_declared_layers(self):
        source = (BENCH / "probe" / "src" / "layers.rs").read_text()
        block = source.split("pub const PER_LAYER")[1].split("];")[0]
        self.assertEqual(re.findall(r'"([^"]+)"', block),
                         [m["name"] for m in self.spec["per_layer"]])


class HostScale(unittest.TestCase):
    def test_a_uniformly_slower_host_gives_the_same_scaled_time(self):
        quiet = 1.2 * harness.host_scale(0.25, 0.25, 0.25)
        self.assertAlmostEqual(quiet, 1.2)
        for slowdown in (1.5, 2.0, 0.8):
            scaled = 1.2 * slowdown * harness.host_scale(0.25, 0.25 * slowdown,
                                                         0.25 * slowdown)
            self.assertAlmostEqual(scaled, quiet)

    def test_a_slower_program_still_shows(self):
        self.assertAlmostEqual(1.5 * harness.host_scale(0.25, 0.25, 0.25), 1.5)

    def test_uses_the_mean_of_the_kernel_runs_around_the_command(self):
        self.assertAlmostEqual(harness.host_scale(0.25, 0.2, 0.3), 1.0)


class Independence(unittest.TestCase):
    def test_each_run_gets_a_fresh_empty_directory(self):
        with tempfile.TemporaryDirectory() as base:
            first = harness.fresh_workdir(base)
            Path(first, "cache.log").write_text("primed")
            second = harness.fresh_workdir(base)
            self.assertNotEqual(first, second)
            self.assertEqual(os.listdir(second), [])


if __name__ == "__main__":
    unittest.main()
