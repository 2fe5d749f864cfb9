"""Tests of the benchmark's own statistics, bound check and digest.

    python3 -m unittest discover -s studybench -p 'test_*.py'

The digest test runs the built studybench's selftest (FNV-1a test vectors,
the window-pair count, span precedence); it is skipped before a build.
"""

import statistics
import subprocess
import unittest
from pathlib import Path

import benchstats
import run

BINARY = run.BINARY


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchstats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchstats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(benchstats.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(benchstats.spread([2.0, 2.0, 2.0]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(benchstats.tail_percentile([1.0] * 99))

    def test_tail_needs_ten_samples_beyond(self):
        p, _ = benchstats.tail_percentile([float(i) for i in range(100)])
        self.assertEqual(p, 90.0)
        p, _ = benchstats.tail_percentile([float(i) for i in range(200)])
        self.assertEqual(p, 95.0)
        p, value = benchstats.tail_percentile([float(i) for i in range(1000)])
        self.assertEqual(p, 99.0)
        self.assertEqual(value, 989.0)


class BoundCheck(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertTrue(benchstats.within_bound(10.0, 11.0, 0.1, "lower"))
        self.assertFalse(benchstats.within_bound(10.0, 11.5, 0.1, "lower"))
        self.assertTrue(benchstats.within_bound(10.0, 5.0, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertTrue(benchstats.within_bound(10.0, 9.5, 0.1, "higher"))
        self.assertFalse(benchstats.within_bound(10.0, 8.5, 0.1, "higher"))
        self.assertTrue(benchstats.within_bound(10.0, 20.0, 0.1, "higher"))

    def test_worsening_sign(self):
        self.assertAlmostEqual(benchstats.worsening(2.0, 3.0, "lower"), 0.5)
        self.assertAlmostEqual(benchstats.worsening(2.0, 3.0, "higher"), -0.5)


class StudySeed(unittest.TestCase):
    def test_vetted_seeds_are_used_as_is(self):
        self.assertEqual(run.study_seed(run.DEFAULT_SEED), run.DEFAULT_SEED)
        for seed in run.PANEL:
            self.assertEqual(run.study_seed(seed), seed)

    def test_other_seeds_rotate_through_the_panel(self):
        picked = [run.study_seed(seed) for seed in range(1, 1 + len(run.PANEL))]
        self.assertEqual(sorted(picked), sorted(run.PANEL))
        self.assertEqual(run.study_seed(123456789), run.study_seed(123456789))


class Digest(unittest.TestCase):
    @unittest.skipUnless(BINARY.exists(), "studybench is not built yet")
    def test_binary_selftest(self):
        result = subprocess.run([str(BINARY), "selftest"], capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("selftest ok", result.stdout)


if __name__ == "__main__":
    unittest.main()
