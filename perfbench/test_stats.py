"""Tests for the benchmark's own arithmetic (perfbench/stats.py).

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def untraced(*ms):
    """An untraced run on the same seed, down to what tracing reads."""
    return {"graphs": [{"latency_ms": list(ms),
                        "query": list(range(len(ms)))}]}


def adhoc_raw():
    # Two queries; totals are sums over both.
    return {
        "workload": "adhoc-labeled",
        "load_s": [0.3, 0.1, 0.2], "nlc_s": [0.05, 0.07, 0.06],
        "trace": {
            "queries": 2,
            "match_ms": 22.0,
            "staged": [{"latency_ms": [12.0, 14.0], "query": [0, 1]}],
            "preprocess_ms": 2.0, "build_ms": 8.0, "refine_ms": 4.0,
            "freeze_flat_ms": 2.0, "enumerate_ms": 4.0,
            "enumerate_cpu_ms": 6.0,
            "neighbors_scanned": 1000, "candidate_edges_unrefined": 250,
            "pruned_edges": 50, "arena_bytes": 4096,
            "recursive_calls": 30, "elements_in": 600, "elements_out": 150,
        },
    }


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = [5, 1, 4, 2, 3]
        self.assertEqual(stats.nearest_rank(samples, 50), 3)
        self.assertEqual(stats.nearest_rank(samples, 99), 5)
        self.assertEqual(stats.nearest_rank(samples, 20), 1)
        self.assertEqual(stats.nearest_rank(samples, 21), 2)
        self.assertEqual(stats.nearest_rank(samples, 0), 1)

    def test_p99_of_hundred_is_the_99th(self):
        self.assertEqual(stats.nearest_rank(list(range(1, 101)), 99), 99)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)


class FailedFracTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failed_frac(0, 10), 0.0)
        self.assertEqual(stats.failed_frac(3, 12), 0.25)

    def test_zero_attempts_counts_as_failing(self):
        self.assertEqual(stats.failed_frac(0, 0), 1.0)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, median, q3, spread = stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, median, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(spread, 1.0)


class EndToEndTest(unittest.TestCase):
    def test_pooled_over_graphs(self):
        raw = {
            "setup_s": [0.3, 0.1, 0.2],
            "peak_rss_kb": 2048,
            "graphs": [
                {"latency_ms": [1.0, 2.0, 3.0], "query": [0, 0, 1],
                 "elapsed_s": 1.0},
                {"latency_ms": [2.0, 4.0, 6.0, 8.0], "query": [0, 1, 0, 1],
                 "elapsed_s": 2.0},
                {"latency_ms": [10.0, 20.0], "query": [0, 0],
                 "elapsed_s": 4.0},
            ],
        }
        m = stats.end_to_end(raw)
        # Set-up is the median over the graphs.
        self.assertEqual(m["setup_s"], 0.2)
        # Replay medians 1.5 1.5 3 4 4 6 6 15 15 (the raw samples are
        # 1 2 2 3 4 6 8 10 20); ranks ceil(4.5) = 5 and ceil(8.91) = 9.
        self.assertEqual(m["query_p50_ms"], 4.0)
        self.assertEqual(m["query_p99_ms"], 15.0)
        # Nine operations over 7 s of loops.
        self.assertAlmostEqual(m["queries_per_s"], 9 / 7)
        self.assertEqual(m["peak_rss_mb"], 2.0)

    def test_one_stalled_run_moves_no_replay_median(self):
        # Query 1 runs three times on one graph; one run stalls.
        raw = {"graphs": [{"latency_ms": [5.0, 9.0, 9.5, 90.0],
                           "query": [0, 1, 1, 1]}]}
        self.assertEqual(sorted(stats.replay_medians(raw)),
                         [5.0, 9.5, 9.5, 9.5])


class LayerTest(unittest.TestCase):
    def test_ratio_bases(self):
        m = stats.adhoc_layers(adhoc_raw(), untraced(9.0, 10.0, 30.0))
        # kept: unrefined candidate edges per neighbor scanned.
        self.assertAlmostEqual(m["build.kept_ratio"], 0.25)
        # pruned: refinement's removals per unrefined candidate edge.
        self.assertAlmostEqual(m["refine.pruned_edge_ratio"], 0.2)
        # out/in: intersection survivors per element fed in.
        self.assertAlmostEqual(m["intersect.out_in_ratio"], 0.25)
        # ns per element: enumeration CPU over elements fed in.
        self.assertAlmostEqual(m["intersect.ns_per_element"], 1e4)
        self.assertAlmostEqual(m["index.arena_bytes"], 2048)

    def test_empty_base_reads_zero(self):
        self.assertEqual(stats.ratio(5, 0), 0.0)

    def test_adhoc_other_is_wall_minus_stages(self):
        m = stats.adhoc_layers(adhoc_raw(), untraced(9.0, 10.0, 30.0))
        stages = sum(m[k] for k in ("preprocess.ms", "build.ms", "refine.ms",
                                    "freeze_flat.ms", "enumerate.ms"))
        self.assertAlmostEqual(stages, 10.0)
        # Mean Match wall 11 ms = 10 ms of stages + 1 ms other.
        self.assertAlmostEqual(m["adhoc.other_ms"], 1.0)
        # Staged replays' p50 12 ms - the untraced run's p50 10 ms.
        self.assertAlmostEqual(m["trace.overhead_ms"], 2.0)
        self.assertAlmostEqual(m["graphio.load_s"], 0.2)

    def test_dist_residual_and_imbalance(self):
        raw = {
            "workload": "dist-batch", "load_s": [0.1], "nlc_s": [0.01],
            "graphs": [{"latency_ms": [200.0, 300.0], "query": [0, 1],
                        "elapsed_s": 0.5}],
            "trace": {
                "queries": 2, "wall_ms": 500.0,
                "preprocess_ms": 20.0, "partition_build_max_ms": 200.0,
                "worker_enum_max_ms": 60.0, "worker_enum_mean_ms": 40.0,
                "bytes_to_workers": 1000,
            },
        }
        m = stats.dist_layers(raw, untraced(180.0))
        # 250 ms mean wall - (10 + 100 + 30) ms of named phases.
        self.assertAlmostEqual(m["dist.residual_ms"], 110.0)
        self.assertAlmostEqual(m["dist.worker_enum_imbalance"], 1.5)
        self.assertAlmostEqual(m["dist.bytes_to_workers"], 500)
        # Every traced query counts: p50 200 ms - untraced p50 180 ms.
        self.assertAlmostEqual(m["trace.overhead_ms"], 20.0)

    def test_serve_cache_ratio_base(self):
        raw = {
            "workload": "dashboard-serve", "load_s": [0.1], "nlc_s": [0.01],
            "graphs": [{"latency_ms": [1.0], "query": [0],
                        "elapsed_s": 0.001}],
            "trace": {
                "net_us": [100.0, 50.0, 80.0], "queue_us": [1.0],
                "exec_us": [900.0], "cache_hits": 99, "cache_misses": 1,
                "replay_requests": 4, "recursive_calls": 40,
                "elements_in": 80, "elements_out": 20,
                "enumerate_cpu_ms": 0.008,
            },
        }
        m = stats.serve_layers(raw, untraced(1.0))
        self.assertAlmostEqual(m["cache.hit_ratio"], 0.99)
        self.assertEqual(m["serve.net_us_p50"], 80.0)
        self.assertAlmostEqual(m["enumerate.recursive_calls"], 10)
        self.assertAlmostEqual(m["intersect.ns_per_element"], 100.0)

    def test_bypassed_layers_read_zero(self):
        m = stats.per_layer(adhoc_raw(), ["build.ms", "dist.residual_ms"],
                            untraced(10.0))
        self.assertEqual(m["dist.residual_ms"], 0.0)
        self.assertAlmostEqual(m["build.ms"], 4.0)


if __name__ == "__main__":
    unittest.main()
