"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s mtsbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import benchstats  # noqa: E402
import run  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.9, 1.3, 1.0, 1.1, 2.4, 1.2, 0.8, 1.05, 1.15, 0.95]
        self.assertEqual(benchstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_known_values(self):
        # Exclusive method: positions (n+1)/4 and 3(n+1)/4 of 1..9.
        self.assertEqual(benchstats.quartiles(list(range(1, 10))),
                         (2.5, 5.0, 7.5))

    def test_quartiles_need_two_values(self):
        with self.assertRaises(ValueError):
            benchstats.quartiles([1.0])

    def test_iqr_share(self):
        self.assertAlmostEqual(benchstats.iqr_share(list(range(1, 10))),
                               (7.5 - 2.5) / 5.0)
        self.assertEqual(benchstats.iqr_share([2.0] * 10), 0.0)

    def test_iqr_share_of_zero_median_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.iqr_share([0.0, 0.0, 0.0])


class PercentileSupport(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(benchstats.samples_beyond(200, 0.95), 10)
        self.assertEqual(benchstats.samples_beyond(199, 0.95), 9)
        self.assertEqual(benchstats.samples_beyond(1000, 0.99), 10)
        self.assertEqual(benchstats.samples_beyond(0, 0.5), 0)

    def test_exact_decimal_boundary(self):
        # 0.95 * 200 in binary floating point is not exactly 190.
        self.assertTrue(benchstats.percentile_supported(200, 0.95))
        self.assertFalse(benchstats.percentile_supported(199, 0.95))

    def test_bad_arguments(self):
        with self.assertRaises(ValueError):
            benchstats.samples_beyond(10, 1.5)
        with self.assertRaises(ValueError):
            benchstats.samples_beyond(-1, 0.5)


def span(i, start, end, parent=-1, name="s"):
    return {"id": i, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "run": 0}


class SpanSelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchstats.self_times([span(0, 10, 50)]), {0: 40})

    def test_children_are_subtracted(self):
        spans = [span(0, 0, 100), span(1, 10, 30, 0), span(2, 50, 90, 0)]
        self.assertEqual(benchstats.self_times(spans), {0: 40, 1: 20, 2: 40})

    def test_overlapping_children_count_once(self):
        spans = [span(0, 0, 100), span(1, 10, 60, 0), span(2, 40, 80, 0)]
        self.assertEqual(benchstats.self_times(spans)[0], 100 - 70)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, 20, 60), span(1, 0, 30, 0), span(2, 50, 90, 0)]
        self.assertEqual(benchstats.self_times(spans)[0], 40 - 20)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span(0, 0, 100), span(1, 10, 60, 0), span(2, 20, 40, 1)]
        own = benchstats.self_times(spans)
        self.assertEqual(own, {0: 50, 1: 30, 2: 20})

    def test_self_time_by_name_sums_in_seconds(self):
        spans = [span(0, 0, 3_000_000_000, name="workload"),
                 span(1, 0, 1_000_000_000, 0, name="harness.run_scenario"),
                 span(2, 1_000_000_000, 2_500_000_000, 0,
                      name="harness.run_scenario")]
        by_name = benchstats.self_time_by_name(spans)
        self.assertAlmostEqual(by_name["harness.run_scenario"], 2.5)
        self.assertAlmostEqual(by_name["workload"], 0.5)


class HostRescale(unittest.TestCase):
    def test_each_sample_is_rescaled_by_its_own_reference(self):
        # The second sample ran while the host was slow (reference 70 ms
        # against a 35 ms nominal): rescaled, all three read 4 s.
        self.assertAlmostEqual(
            benchstats.host_rescaled([4.0, 8.0, 4.4], [0.035, 0.070, 0.0385],
                                     0.035), 4.0)

    def test_median_of_the_rescaled_samples(self):
        self.assertAlmostEqual(
            benchstats.host_rescaled([1.0, 2.0, 9.0], [0.035] * 3, 0.035), 2.0)

    def test_nominal_host_leaves_seconds_alone(self):
        self.assertAlmostEqual(
            benchstats.host_rescaled([3.2], [0.035], 0.035), 3.2)

    def test_non_positive_reference_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.host_rescaled([1.0], [0.0], 0.035)

    def test_unpaired_samples_are_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.host_rescaled([1.0, 2.0], [0.035], 0.035)


class FailedFraction(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(benchstats.failed_frac(330, 0), 0.0)
        self.assertEqual(benchstats.failed_frac(4, 1), 0.25)
        self.assertEqual(benchstats.failed_frac(3, 3), 1.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.failed_frac(0, 0)

    def test_more_failed_than_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.failed_frac(2, 3)

    def test_all_equal(self):
        self.assertTrue(benchstats.all_equal([]))
        self.assertTrue(benchstats.all_equal(["a/1", "a/1"]))
        self.assertFalse(benchstats.all_equal(["a/1", "a/2"]))


class TraceOverhead(unittest.TestCase):
    def test_one_ratio_per_pair_and_median_of_them(self):
        data = {"pair_untraced_s": [2.0, 4.0, 1.0],
                "pair_traced_s": [2.2, 4.0, 0.9]}
        ratios = run.overhead_pairs(data)
        for got, want in zip(ratios, [0.1, 0.0, -0.1]):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(benchstats.median(ratios), 0.0)

    def test_pair_without_untraced_time_is_skipped(self):
        data = {"pair_untraced_s": [0.0, 2.0], "pair_traced_s": [1.0, 3.0]}
        self.assertEqual(run.overhead_pairs(data), [0.5])


class DefaultWindow(unittest.TestCase):
    def test_seconds_default_is_run_seconds(self):
        self.assertEqual(run.default_seconds(),
                         float(run.benchmark_json()["run_seconds"]))


class GeneratedConfig(unittest.TestCase):
    def test_same_seed_same_config(self):
        for name in run.WORKLOADS:
            self.assertEqual(run.make_config(name, 7, 10, 0, "w"),
                             run.make_config(name, 7, 10, 0, "w"))

    def test_seed_moves_order_and_coalition_not_the_scenarios(self):
        def drawn(name, key):
            return {run.make_config(name, s, 10, 0, "w")[key]
                    for s in range(1, 9)}
        self.assertGreater(len(drawn("paper50", "adversary_members")), 1)
        self.assertGreater(len(drawn("paper50", "order")), 1)
        self.assertGreater(len(drawn("sweep", "speeds")), 1)
        for name in run.WORKLOADS:
            self.assertEqual(len(drawn(name, "seed_base")), 1)

    def test_order_is_a_permutation_of_the_runs(self):
        for name, spec in run.WORKLOADS.items():
            cfg = run.make_config(name, 3, 10, 0, "w")
            if spec["kind"] == "sweep":
                for axis in ("protocols", "speeds"):
                    self.assertEqual(sorted(cfg[axis].split(",")),
                                     sorted(spec[axis].split(",")))
                continue
            order = sorted(int(i) for i in cfg["order"].split(","))
            self.assertEqual(order, list(range(len(order))))


if __name__ == "__main__":
    unittest.main()
