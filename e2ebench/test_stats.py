"""Unit tests of the benchmark's own arithmetic (e2ebench/stats.py).

    python3 e2ebench/run.py --selftest
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileChoice(unittest.TestCase):
    def test_nearest_rank_returns_a_sample(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(values, 50), 3)
        self.assertEqual(stats.percentile(values, 99), 5)
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)
        self.assertEqual(stats.percentile([], 50), 0.0)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.supported_percentile(0))
        self.assertIsNone(stats.supported_percentile(19))
        self.assertEqual(stats.supported_percentile(20), 50.0)
        self.assertEqual(stats.supported_percentile(99), 50.0)
        self.assertEqual(stats.supported_percentile(100), 90.0)
        self.assertEqual(stats.supported_percentile(999), 90.0)
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(9999), 99.0)
        self.assertEqual(stats.supported_percentile(10000), 99.9)

    def test_too_small_a_sample_is_flagged(self):
        raw = {"page_us": [1.0] * 1500, "page_pump_us": [1.0] * 1500,
               "page_wall_us": [1.0] * 1500, "probe_us": [12.5],
               "cpu_probe_us": [16.0], "setup_probe_us": [16.0],
               "page_first": [1] * 500 + [0] * 1000,
               "page_end_s": [i / 150 for i in range(1, 1501)],
               "page_answers": [64] * 1500, "clients": 2,
               "write_ms": [2.0] * 10, "write_wall_ms": [2.0] * 10,
               "setup_s": [0.1], "peak_rss_mb": 1.0}
        _, samples = stats.end_to_end(raw)
        self.assertEqual(samples["first_page_p99_us"],
                         {"n": 500, "supported": False})
        self.assertEqual(samples["first_page_p50_us"],
                         {"n": 500, "supported": True})
        self.assertEqual(samples["next_page_p99_us"],
                         {"n": 1000, "supported": True})
        self.assertEqual(samples["write_p50_ms"], {"n": 10, "supported": False})

    def test_rate_is_per_busy_second(self):
        # Two clients, 2000 requests of 10 ms each: 20 s of busy time
        # shared by two clients -> 200/s.
        ones = [1] * 2000
        self.assertAlmostEqual(stats.rate([1e4] * 2000, ones, 2), 200.0)
        self.assertAlmostEqual(stats.rate([1e4] * 2000, [64] * 2000, 2),
                               64 * 200.0)
        self.assertEqual(stats.rate([], [], 2), 0.0)

    def test_end_to_end_reports_counts_and_flags(self):
        n = 2000
        # Wall times are 10 us above the charged ones (time the
        # hypervisor held the client's vCPU); the probe reads nominal.
        raw = {"page_us": [float(i % 100) for i in range(n)],
               "page_pump_us": [float(i % 100) for i in range(n)],
               "page_wall_us": [float(i % 100) + 10 for i in range(n)],
               "probe_us": [10.0, 12.5, 30.0],
               "cpu_probe_us": [16.0], "setup_probe_us": [8.0, 16.0, 32.0],
               "page_first": [i % 2 for i in range(n)],
               "page_end_s": [i / 200 for i in range(1, n + 1)],
               "page_answers": [64] * n, "clients": 2,
               "write_ms": [2.0] * 120, "write_wall_ms": [3.0] * 120,
               "setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 10.0}
        metrics, samples = stats.end_to_end(raw)
        self.assertEqual(metrics["setup_s"], ("s", 0.2))
        self.assertEqual(metrics["write_p90_ms"], ("ms", 2.0))
        self.assertEqual(metrics["write_wall_p90_ms"], ("ms", 3.0))
        self.assertEqual(metrics["first_page_wall_p50_us"][1],
                         metrics["first_page_p50_us"][1] + 10)
        self.assertTrue(samples["first_page_p99_us"]["supported"])
        self.assertEqual(samples["first_page_p99_us"]["n"], 1000)
        self.assertEqual(samples["next_page_p99_us"],
                         {"n": 1000, "supported": True})
        self.assertTrue(samples["write_p90_ms"]["supported"])
        # 59.5 us of wall time busy per page, split over 2 clients.
        self.assertAlmostEqual(metrics["requests_per_s"][1],
                               1 / (59.5e-6 / 2))
        self.assertAlmostEqual(metrics["answers_per_s"][1],
                               64 * metrics["requests_per_s"][1])


    def test_times_are_scaled_by_the_probes(self):
        # A first page of 30 us on the client thread and a 40 us Pump,
        # and a next page of 40 us, on a host whose hand-offs take twice
        # the nominal probe time (the Pumps count half) and that runs
        # work at two thirds of the nominal speed (the client's own work
        # and the writes count two thirds).
        n = 200
        raw = {"page_us": [70.0, 40.0] * n, "page_pump_us": [40.0] * 2 * n,
               "page_wall_us": [80.0, 40.0] * n, "page_first": [1, 0] * n,
               "page_end_s": [i / 100 for i in range(1, 2 * n + 1)],
               "page_answers": [64] * 2 * n, "clients": 2,
               "write_ms": [3.0] * 10, "write_wall_ms": [3.0] * 10,
               "probe_us": [2 * stats.HANDOFF_NOMINAL_US] * 3,
               "cpu_probe_us": [1.5 * stats.CPU_NOMINAL_US] * 3,
               "setup_probe_us": [0.5 * stats.CPU_NOMINAL_US],
               "setup_s": [0.1], "peak_rss_mb": 1.0}
        metrics, _ = stats.end_to_end(raw)
        self.assertAlmostEqual(metrics["first_page_p50_us"][1], 40.0)
        self.assertEqual(metrics["next_page_p50_us"], ("us", 20.0))
        self.assertEqual(metrics["first_page_wall_p50_us"], ("us", 80.0))
        self.assertAlmostEqual(metrics["write_p50_ms"][1], 2.0)
        self.assertEqual(metrics["write_wall_p50_ms"], ("ms", 3.0))
        self.assertAlmostEqual(metrics["setup_s"][1], 0.2)
        self.assertEqual(stats.scale(10.0, [25.0, 5.0, 20.0]), 0.5)


class FailedFrac(unittest.TestCase):
    @staticmethod
    def raw(**kw):
        r = {"requests": 200, "ok": 200, "parse_error": 0, "bad_page": 0,
             "unexpected": 0, "retired": 0}
        r.update(kw)
        return r

    def test_clean_run(self):
        c = stats.outcome_counts(self.raw())
        self.assertEqual((c["attempted"], c["failed"]), (200, 0))
        self.assertEqual(c["failed_frac"], 0.0)

    def test_parse_error_and_bad_page_fail(self):
        c = stats.outcome_counts(self.raw(parse_error=1, bad_page=3,
                                          unexpected=1))
        self.assertEqual(c["failed"], 5)
        self.assertAlmostEqual(c["failed_frac"], 5 / 200)

    def test_retired_is_counted_apart(self):
        c = stats.outcome_counts(self.raw(retired=4, bad_page=2))
        self.assertEqual(c["failed"], 2)
        self.assertEqual(c["retired"], 4)
        self.assertAlmostEqual(c["retired_frac"], 4 / 200)
        self.assertAlmostEqual(c["failed_frac"], 2 / 200)

    def test_nothing_attempted(self):
        c = stats.outcome_counts(self.raw(requests=0, ok=0))
        self.assertEqual(c["failed_frac"], 0.0)


def span(sid, name, start, end, parent=-1, replay=False):
    return {"request": 1, "id": sid, "parent": parent, "name": name,
            "start": start, "end": end, "replay": replay}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([span(1, "a", 10, 35)]), {1: 25})

    def test_real_children_subtract_their_union(self):
        spans = [span(1, "req", 0, 100),
                 span(2, "prep", 10, 40, parent=1),
                 span(3, "pump", 30, 60, parent=1),   # overlaps prep
                 span(4, "late", 90, 120, parent=1)]  # clipped to 100
        self.assertEqual(stats.self_times(spans)[1], 100 - 50 - 10)

    def test_grandchildren_do_not_count_twice(self):
        spans = [span(1, "req", 0, 100), span(2, "prep", 0, 60, parent=1),
                 span(3, "inner", 10, 50, parent=2)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 40)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[3], 40)

    def test_replay_children_subtract_their_duration(self):
        # Replays run after the call, outside its interval.
        spans = [span(1, "engine.PrepareRegex", 0, 100),
                 span(2, "regex.parse", 150, 170, parent=1, replay=True),
                 span(3, "core.annotate", 170, 230, parent=1, replay=True)]
        self.assertEqual(stats.self_times(spans)[1], 20)

    def test_never_negative(self):
        spans = [span(1, "p", 0, 10),
                 span(2, "r", 20, 60, parent=1, replay=True)]
        self.assertEqual(stats.self_times(spans)[1], 0)

    def test_span_table(self):
        spans = [span(1, "a", 0, 10), span(2, "a", 0, 30),
                 span(3, "a", 0, 20), span(4, "b", 0, 5, parent=2)]
        t = stats.span_table(spans)
        self.assertEqual(t["a"]["count"], 3)
        self.assertEqual(t["a"]["p50_ns"], 20)
        self.assertEqual(t["a"]["self_p50_ns"], 20)  # selfs 10, 25, 20


if __name__ == "__main__":
    unittest.main()
