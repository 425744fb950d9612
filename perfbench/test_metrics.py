#!/usr/bin/env python3
"""Self-tests of the benchmark's metric math on synthetic sidecars.

    python3 perfbench/test_metrics.py
"""

import json
import os
import sys
import unittest
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402


def tagged(payload):
    return "%s#%08x" % (payload, zlib.crc32(payload.encode()))


def timing_line(point, trial, dur_us, worker=0, start_us=0):
    return json.dumps({"unit_timing": 1, "point": point, "trial": trial,
                       "start_us": start_us, "dur_us": dur_us,
                       "worker": worker}, separators=(",", ":"))


HEADER = ('{"ncg_timings":1,"scenario":"s","fingerprint":"0x1",'
          '"points":2,"trials":2}')


def timing(point, trial, dur_us, worker):
    return {"point": point, "trial": trial, "start_us": 0, "dur_us": dur_us,
            "worker": worker}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(metrics.tail_percentile(1000), 99)
        self.assertEqual(metrics.tail_percentile(4096), 99)
        self.assertEqual(metrics.tail_percentile(999), 98)

    def test_small_counts_fall_back_and_keep_ten_beyond(self):
        for count in (11, 36, 90, 500):
            q = metrics.tail_percentile(count)
            rank = -(-q * count // 100)
            self.assertGreaterEqual(count - rank, metrics.TAIL_BEYOND)
            rank_next = -(-(q + 1) * count // 100)
            self.assertLess(count - rank_next, metrics.TAIL_BEYOND)
        self.assertEqual(metrics.tail_percentile(36), 72)
        self.assertIsNone(metrics.tail_percentile(10))


class SidecarTest(unittest.TestCase):
    def test_checksummed_and_legacy_lines(self):
        text = "\n".join([tagged(HEADER), tagged(timing_line(0, 0, 5)),
                          timing_line(0, 1, 6)]) + "\n"
        sidecar = metrics.parse_sidecar(text)
        self.assertEqual(sidecar.header["scenario"], "s")
        self.assertEqual(sidecar.units(), {(0, 0), (0, 1)})
        self.assertEqual(sidecar.malformed, 0)

    def test_bad_checksum_and_torn_tail_are_malformed(self):
        good = tagged(timing_line(1, 0, 5))
        bad = good[:-1] + ("0" if good[-1] != "0" else "1")
        text = "\n".join([tagged(HEADER), bad, good,
                          tagged(timing_line(1, 1, 5))[:20]])
        sidecar = metrics.parse_sidecar(text)
        self.assertEqual(sidecar.units(), {(1, 0)})
        self.assertEqual(sidecar.malformed, 2)

    def test_first_report_wins(self):
        text = "\n".join([tagged(HEADER), tagged(timing_line(0, 0, 5, 1)),
                          tagged(timing_line(0, 0, 900, 0))]) + "\n"
        sidecar = metrics.parse_sidecar(text)
        self.assertEqual(len(sidecar.timings), 1)
        self.assertEqual(sidecar.timings[0]["dur_us"], 5)
        self.assertEqual(sidecar.timings[0]["worker"], 1)
        self.assertEqual(sidecar.duplicates, 1)

    def test_non_integer_fields_are_malformed(self):
        line = timing_line(0, 0, 5).replace('"dur_us":5', '"dur_us":5.5')
        sidecar = metrics.parse_sidecar(tagged(HEADER) + "\n" + tagged(line)
                                        + "\n")
        self.assertEqual(sidecar.timings, [])
        self.assertEqual(sidecar.malformed, 1)

    def test_missing_file_text(self):
        sidecar = metrics.parse_sidecar("\n")
        self.assertIsNone(sidecar.header)
        self.assertEqual(sidecar.units(), set())


class RunnerArithmeticTest(unittest.TestCase):
    def test_busy_imbalance_overhead_efficiency(self):
        timings = [timing(0, 0, 2_000_000, 0), timing(0, 1, 1_000_000, 0),
                   timing(1, 0, 1_000_000, 1)]
        m = metrics.runner_metrics(timings, 2, 4.0)
        self.assertAlmostEqual(m["unit_sum_s"], 4.0)
        self.assertAlmostEqual(m["worker_busy_max_s"], 3.0)
        self.assertAlmostEqual(m["imbalance"], 1.5)
        self.assertAlmostEqual(m["overhead_s"], 1.0)
        self.assertAlmostEqual(m["parallel_efficiency"], 0.5)

    def test_idle_lane_counts(self):
        m = metrics.runner_metrics([timing(0, 0, 1_000_000, 0)], 2, 1.0)
        self.assertAlmostEqual(m["imbalance"], 2.0)
        self.assertAlmostEqual(m["parallel_efficiency"], 0.5)


class FailureAccountingTest(unittest.TestCase):
    EXPECTED = {(0, 0), (0, 1), (1, 0)}

    def test_clean_campaign(self):
        self.assertEqual(
            metrics.failed_units(self.EXPECTED, 0, True, set(self.EXPECTED)),
            0)

    def test_each_failure_fails_every_unit(self):
        full = set(self.EXPECTED)
        self.assertEqual(metrics.failed_units(self.EXPECTED, 1, True, full), 3)
        self.assertEqual(metrics.failed_units(self.EXPECTED, 0, False, full),
                         3)
        self.assertEqual(
            metrics.failed_units(self.EXPECTED, 0, True, {(0, 0), (0, 1)}), 3)

    def test_failed_campaigns_give_no_timings(self):
        good = {"wall": 2.0, "rss_mb": 10.0, "attempted": 2, "failed": 0,
                "timings": [timing(0, 0, 1_000, 0), timing(0, 1, 3_000, 1)]}
        bad = {"wall": 99.0, "rss_mb": 99.0, "attempted": 2, "failed": 2,
               "timings": [timing(0, 0, 99_000, 0)]}
        attempted, failed, values = run.end_to_end("w", [good, bad], [0.5])
        self.assertEqual((attempted, failed), (4, 2))
        self.assertAlmostEqual(values["unit_success_share"], 0.5)
        self.assertEqual(values["campaign_s"], 2.0)
        self.assertEqual(values["unit_p99_ms"], 3.0)
        self.assertEqual(values["setup_s"], 0.5)


class ContractTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json"),
                  encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
