"""Self-tests of the benchmark's own logic (run: python3 perfbench/run.py
--self-test). They need no build."""

import json
import unittest
from pathlib import Path

import analysis


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        xs = [float(i) for i in range(1000)]
        p, value, n = analysis.tail_percentile(xs)
        self.assertEqual((p, n), (99.0, 1000))
        self.assertEqual(value, analysis.percentile(xs, 99.0))
        # 900 samples leave only nine beyond p99.
        self.assertEqual(analysis.samples_beyond(900, 99.0), 9)
        self.assertEqual(analysis.tail_percentile(xs[:900])[0], 95.0)
        # 10000 samples support p99.9.
        many = [float(i) for i in range(10000)]
        self.assertEqual(analysis.tail_percentile(many)[0], 99.9)

    def test_too_few_samples(self):
        self.assertEqual(analysis.tail_percentile([1.0] * 15),
                         (None, None, 15))
        self.assertEqual(analysis.tail_percentile([])[2], 0)
        self.assertEqual(analysis.tail_percentile([1.0] * 21)[0], 50.0)

    def test_percentile_interpolates_like_common_stats(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(analysis.percentile(xs, 50.0), 2.5)
        self.assertEqual(analysis.percentile(xs, 0.0), 1.0)
        self.assertEqual(analysis.percentile(xs, 100.0), 4.0)
        self.assertEqual(analysis.percentile(xs + [float("nan")], 50.0), 2.5)

    def test_result_checks_named_percentile_support(self):
        res = analysis.Result()
        res.tail("lat_p99_ms", [float(i) for i in range(500)], 99, "ms",
                 "sim")
        self.assertFalse(res.correct)
        res = analysis.Result()
        res.tail("lat_p99_ms", [float(i) for i in range(1000)], 99, "ms",
                 "sim")
        self.assertTrue(res.correct)


class MetricNameTest(unittest.TestCase):
    def test_names(self):
        for good in ("rmse_m", "service.rung.8.p99_ms", "hw.cycles.bsub",
                     "1x", "a-b", "x" * 64):
            self.assertTrue(analysis.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "p99%", "a/b", "x" * 65, None):
            self.assertFalse(analysis.valid_metric_name(bad), bad)

    def test_contract_lists_match_benchmark_json(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        spec = json.loads(path.read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]], analysis.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            analysis.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(analysis.WORKLOADS))
        for name, *_ in analysis.END_TO_END + analysis.PER_LAYER:
            self.assertTrue(analysis.valid_metric_name(name), name)


def rung(per_slot, p99_ms, rejected=0, growth_ms=0.0):
    return {"sessions_per_slot": per_slot, "p99_ms": p99_ms,
            "rejected": rejected, "backlog_growth_ms": growth_ms}


class CapacityLadderTest(unittest.TestCase):
    def test_highest_passing_rung(self):
        ladder = [rung(2, 5.0), rung(4, 7.0), rung(8, 60.0), rung(16, 400.0)]
        self.assertEqual(analysis.capacity(ladder), 8)

    def test_limit_is_inclusive(self):
        self.assertEqual(analysis.capacity([rung(2, 100.0)]), 2)

    def test_all_fail_reads_zero(self):
        ladder = [rung(2, 25000.0), rung(4, 12000.0), rung(8, 6000.0),
                  rung(16, 3000.0)]
        self.assertEqual(analysis.capacity(ladder), 0)
        self.assertEqual(analysis.capacity([]), 0)

    def test_rejection_or_growing_backlog_fails_a_rung(self):
        ladder = [rung(2, 5.0), rung(4, 5.0, rejected=1),
                  rung(8, 5.0, growth_ms=250.0)]
        self.assertEqual(analysis.capacity(ladder), 2)

    def test_backlog_growth(self):
        arrivals = [0.0, 1.0, 2.0, 3.0]
        self.assertEqual(analysis.backlog_growth_ms(arrivals, arrivals), 0.0)
        admits = [0.0, 1.0, 2.5, 4.0]   # later sessions wait 0.5 s, 1 s
        self.assertAlmostEqual(
            analysis.backlog_growth_ms(arrivals, admits), 750.0)


class CausalityTest(unittest.TestCase):
    def traces(self, **override):
        # Binary fractions, so the sums are exact.
        t = {"session": [0, 0], "frame": [1, 2],
             "available_s": [0.125, 0.25], "request_s": [0.125, 0.25],
             "link_s": [0.0078125, 0.0078125],
             "compute_s": [0.00390625, 0.00390625],
             "complete_s": [0.13671875, 0.26171875]}
        t.update(override)
        return t

    def test_causal_timeline(self):
        self.assertEqual(analysis.causality_violations(self.traces()), [])

    def test_violations(self):
        early = self.traces(request_s=[0.0625, 0.25])
        self.assertTrue(analysis.causality_violations(early))
        short = self.traces(complete_s=[0.1328125, 0.26171875])
        self.assertTrue(analysis.causality_violations(short))
        reordered = self.traces(complete_s=[0.5, 0.26171875])
        self.assertTrue(analysis.causality_violations(reordered))


def record(seed, **fields):
    m = {"workload": "fleet", "seed": seed, "seconds": 20.0, "trace": 0,
         "build_type": "RelWithDebInfo", "simd_backend": "avx2",
         "archytas_threads": 4, "git_sha": "a", "source_digest": "d",
         "timestamp": "t%d" % seed}
    m.update(fields)
    return {"manifest": m, "metrics": {}}


class ManifestTest(unittest.TestCase):
    def test_pool_allows_only_seed_and_time_to_differ(self):
        analysis.check_poolable([record(1), record(2)])
        for field in ({"simd_backend": "scalar"}, {"archytas_threads": 1},
                      {"build_type": "Release"}, {"git_sha": "b"}):
            with self.assertRaises(analysis.ManifestMismatch):
                analysis.check_poolable([record(1), record(2, **field)])

    def test_compare_allows_code_identity_to_differ(self):
        base = [record(1), record(2)]
        cand = [record(1, git_sha="b", source_digest="e"),
                record(2, git_sha="b", source_digest="e")]
        analysis.check_comparable(base, cand)

    def test_compare_refuses_mismatched_manifests(self):
        base = [record(1), record(2)]
        with self.assertRaises(analysis.ManifestMismatch):
            analysis.check_comparable(
                base, [record(1, simd_backend="scalar"),
                       record(2, simd_backend="scalar")])
        with self.assertRaises(analysis.ManifestMismatch):
            analysis.check_comparable(base, [record(1), record(3)])
        with self.assertRaises(analysis.ManifestMismatch):
            analysis.check_comparable(base, [record(1), record(2, seconds=5)])


if __name__ == "__main__":
    unittest.main()
