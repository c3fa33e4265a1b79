"""Self-test of the benchmark's statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench/tests
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 4.0)
        self.assertAlmostEqual(stats.percentile(values, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(values, 25), 1.75)

    def test_single_value_and_errors(self):
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_p99_of_one_to_thousand(self):
        values = list(range(1, 1001))
        self.assertAlmostEqual(stats.percentile(values, 99), 990.01)


class SupportTest(unittest.TestCase):
    """A percentile is reported only with at least ten samples beyond it."""

    def test_p99_needs_a_thousand_samples(self):
        self.assertTrue(stats.supports(1000, 99))
        self.assertFalse(stats.supports(999, 99))

    def test_p50_needs_twenty(self):
        self.assertTrue(stats.supports(20, 50))
        self.assertFalse(stats.supports(19, 50))

    def test_highest_supported_walks_the_ladder(self):
        self.assertIsNone(stats.highest_supported(19))
        self.assertEqual(stats.highest_supported(20), 50)
        self.assertEqual(stats.highest_supported(100), 90)
        self.assertEqual(stats.highest_supported(199), 90)
        self.assertEqual(stats.highest_supported(200), 95)
        self.assertEqual(stats.highest_supported(1000), 99)
        self.assertEqual(stats.highest_supported(9999), 99)
        self.assertEqual(stats.highest_supported(10000), 99.9)

    def test_minimum_is_configurable(self):
        self.assertTrue(stats.supports(100, 99, min_beyond=1))
        self.assertFalse(stats.supports(100, 99, min_beyond=2))


class WindowedPercentileTest(unittest.TestCase):
    def test_too_few_samples_falls_back_to_plain_percentile(self):
        values = [float(i) for i in range(1999)]
        self.assertEqual(stats.windowed_percentile(values, 99),
                         stats.percentile(values, 99))

    def test_median_of_window_percentiles(self):
        # Two windows of 1000: p99 of 0..999 and of 1000..1999.
        values = [float(i) for i in range(2000)]
        expected = statistics.median([stats.percentile(values[:1000], 99),
                                      stats.percentile(values[1000:], 99)])
        self.assertAlmostEqual(stats.windowed_percentile(values, 99),
                               expected)

    def test_one_stalled_window_does_not_move_the_figure(self):
        calm = [1.0] * 1000
        stalled = [1.0] * 980 + [50.0] * 20
        values = calm * 4 + stalled + calm * 4
        self.assertEqual(stats.windowed_percentile(values, 99), 1.0)
        self.assertGreater(stats.percentile(values, 99.9), 1.0)

    def test_window_count_is_capped(self):
        values = [float(i % 7) for i in range(100000)]
        self.assertEqual(stats.windowed_percentile(values, 50, max_windows=3),
                         statistics.median(
                             stats.percentile(values[a:b], 50)
                             for a, b in ((0, 33333), (33333, 66667),
                                          (66667, 100000))))


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_zero_median_is_infinite_spread(self):
        self.assertEqual(stats.spread([0.0, 0.0, 0.0, 0.0]), math.inf)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(stats.worse_by(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(stats.worse_by(10.0, 12.0, "higher"), -0.2)


class PairVerdictTest(unittest.TestCase):
    """A gain needs wins in 9 of 10 pairs and separated medians."""

    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9,
              100.4]

    def test_nine_of_ten_wins_is_a_gain(self):
        change = [v - 5.0 for v in self.parent]
        change[3] = self.parent[3] + 1.0  # one loss
        verdict = stats.pair_verdict(self.parent, change, "lower")
        self.assertEqual((verdict["wins"], verdict["losses"]), (9, 1))
        self.assertTrue(verdict["gain"])

    def test_eight_of_ten_wins_is_not(self):
        change = [v - 5.0 for v in self.parent]
        change[3] = self.parent[3] + 1.0
        change[7] = self.parent[7] + 1.0
        verdict = stats.pair_verdict(self.parent, change, "lower")
        self.assertEqual(verdict["wins"], 8)
        self.assertFalse(verdict["gain"])

    def test_ties_count_for_neither_side(self):
        change = [v - 5.0 for v in self.parent]
        change[0] = self.parent[0]
        verdict = stats.pair_verdict(self.parent, change, "lower")
        self.assertEqual((verdict["wins"], verdict["ties"]), (9, 1))
        self.assertTrue(verdict["gain"])
        change[1] = self.parent[1]
        self.assertFalse(stats.pair_verdict(self.parent, change,
                                            "lower")["gain"])

    def test_wins_inside_the_parent_spread_are_not_a_gain(self):
        change = [v - 0.01 for v in self.parent]
        verdict = stats.pair_verdict(self.parent, change, "lower")
        self.assertEqual(verdict["wins"], 10)
        self.assertFalse(verdict["gain"])

    def test_higher_is_better(self):
        change = [v + 5.0 for v in self.parent]
        self.assertTrue(stats.pair_verdict(self.parent, change,
                                           "higher")["gain"])
        self.assertFalse(stats.pair_verdict(self.parent, change,
                                            "lower")["gain"])

    def test_needs_ten_paired_runs(self):
        with self.assertRaises(ValueError):
            stats.pair_verdict(self.parent[:9], self.parent[:9], "lower")
        with self.assertRaises(ValueError):
            stats.pair_verdict(self.parent, self.parent[:9], "lower")


class RegressionVerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]

    def test_within_bound_is_ok(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(stats.regression_verdict(self.parent, change,
                                                  "lower", 0.1), "ok")

    def test_beyond_bound_regresses(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.regression_verdict(self.parent, change,
                                                  "lower", 0.1), "regressed")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = list(parent)
        self.assertEqual(stats.regression_verdict(parent, change, "lower",
                                                  0.1), "unresolved")

    def test_dominating_change_is_ok_despite_spread(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [v / 10.0 for v in parent]
        self.assertEqual(stats.regression_verdict(parent, change, "lower",
                                                  0.1), "ok")


if __name__ == "__main__":
    unittest.main()
