"""Statistics the study benchmark reports and judges by.

Quartiles follow Python's statistics.quantiles(values, n=4) (the
"exclusive" method), so a spread computed here equals the one any other
reader of the same ten values computes.
"""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("inf")


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(values, min_beyond=10):
    """The highest of TAIL_PERCENTILES with at least `min_beyond` samples
    above it, as (percentile, value); None when no percentile qualifies."""
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= min_beyond:
            rank = min(n - 1, int(round(p / 100.0 * (n - 1))))
            return p, ordered[rank]
    return None


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def within_bound(first, second, bound, better):
    return worsening(first, second, better) <= bound
