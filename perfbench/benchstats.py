"""The benchmark's arithmetic: percentiles, ratios with their base, and
failure shares.  Kept apart from run.py so test_benchstats.py can check
it without building or running anything."""

import math
import statistics

# A percentile above the median is reported only when at least this many
# samples lie beyond it; below that the tail is one or two outliers.
MIN_TAIL = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile of samples, or None when p > 50 and
    fewer than MIN_TAIL samples lie beyond the rank (or there are none)."""
    if not samples:
        return None
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(p / 100.0 * n))
    if p > 50 and n - rank < MIN_TAIL:
        return None
    return xs[rank - 1]


def median(samples):
    return statistics.median(samples) if samples else None


def calibration_scale(ref_s, before_s, after_s):
    """The factor that turns a time measured between two runs of the
    calibration kernel, taking before_s and after_s, into calibrated
    seconds: seconds at the speed at which the kernel takes ref_s."""
    return ref_s / ((before_s + after_s) / 2.0)


def ratio(num, den):
    """A ratio that carries its base: value, numerator and denominator."""
    return {"value": num / den if den else None, "num": num, "den": den}


class Ops:
    """Operation tally.  Anything that did not produce a correct result --
    a refused (overloaded) or timed-out request, an error reply, a
    missing or wrong output -- counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def ok(self, n=1):
        self.attempted += n

    def fail(self, reason, n=1):
        self.attempted += n
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def share(self):
        return ratio(self.failed, self.attempted)
