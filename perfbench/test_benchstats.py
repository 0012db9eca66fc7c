"""Tests for the benchmark's arithmetic.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchstats as bs


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(bs.percentile(xs, 50), 50)
        self.assertEqual(bs.percentile(xs, 90), 90)
        self.assertEqual(bs.percentile(list(reversed(xs)), 50), 50)

    def test_tail_needs_ten_samples_beyond(self):
        # p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        self.assertEqual(bs.percentile(list(range(1000)), 99), 989)
        self.assertIsNone(bs.percentile(list(range(999)), 99))
        self.assertIsNone(bs.percentile(list(range(50)), 90))
        self.assertEqual(bs.percentile(list(range(100)), 90), 89)

    def test_median_has_no_tail_rule(self):
        self.assertEqual(bs.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(bs.percentile([7.0], 50), 7.0)

    def test_empty(self):
        self.assertIsNone(bs.percentile([], 50))
        self.assertIsNone(bs.median([]))


class CalibrationScale(unittest.TestCase):
    def test_reference_speed_scales_by_one(self):
        self.assertEqual(bs.calibration_scale(0.04, 0.04, 0.04), 1.0)

    def test_slow_machine_shrinks_times(self):
        # The kernel ran at half speed around the trial: a 2 s trial is
        # 1 calibrated second.
        self.assertEqual(2.0 * bs.calibration_scale(0.04, 0.08, 0.08), 1.0)

    def test_uses_the_mean_of_both_sides(self):
        self.assertEqual(bs.calibration_scale(0.06, 0.04, 0.08), 1.0)


class Ratio(unittest.TestCase):
    def test_carries_its_base(self):
        self.assertEqual(bs.ratio(3, 4), {"value": 0.75, "num": 3, "den": 4})

    def test_zero_base_has_no_value(self):
        self.assertEqual(bs.ratio(0, 0), {"value": None, "num": 0, "den": 0})


class Ops(unittest.TestCase):
    def test_refused_and_timed_out_count_as_failed(self):
        ops = bs.Ops()
        ops.ok(7)
        ops.fail("serve overloaded")
        ops.fail("timed out", 2)
        self.assertEqual((ops.attempted, ops.failed), (10, 3))
        self.assertEqual(ops.share(), {"value": 0.3, "num": 3, "den": 10})
        self.assertEqual(ops.reasons, {"serve overloaded": 1, "timed out": 2})

    def test_nothing_failed(self):
        ops = bs.Ops()
        ops.ok(5)
        self.assertEqual(ops.share()["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
