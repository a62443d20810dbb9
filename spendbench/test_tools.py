"""Tests for the spread computation: python3 -m unittest discover spendbench"""

import unittest

from tools import parse_seeds, spread


class SpreadTest(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method(self):
        # statistics.quantiles(n=4) interpolates at (n + 1) * k / 4.
        med, q1, q3, s = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(s, 5.5 / 5.5)

    def test_spread_is_relative_to_the_median(self):
        med, q1, q3, s = spread([100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 100.0, 101.0, 99.0])
        self.assertEqual(med, 100.0)
        self.assertAlmostEqual(s, (q3 - q1) / 100.0)
        self.assertLess(s, 0.03)

    def test_seed_lists(self):
        self.assertEqual(parse_seeds("1-4"), [1, 2, 3, 4])
        self.assertEqual(parse_seeds("3,9"), [3, 9])


if __name__ == "__main__":
    unittest.main()
