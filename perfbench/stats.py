"""Statistics of the serving benchmark: percentiles, run-to-run spread,
and the rules for comparing a parent commit with a change.

Everything here is a pure function of its inputs; tests/test_stats.py
pins the behaviour.
"""

import math
import statistics

# A timing percentile is reported only when at least this many samples lie
# beyond it (p99 therefore needs 1000 samples).
MIN_BEYOND = 10


def percentile(values, q):
    """Linearly interpolated q-th percentile (0 <= q <= 100) of values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("percentile out of range: %r" % q)
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supports(n, q, min_beyond=MIN_BEYOND):
    """True when n samples leave at least min_beyond beyond percentile q."""
    return n * (100.0 - q) / 100.0 >= min_beyond - 1e-9


def highest_supported(n, ladder=(50, 90, 95, 99, 99.9, 99.99),
                      min_beyond=MIN_BEYOND):
    """The highest percentile of the ladder that n samples support, or None."""
    best = None
    for q in ladder:
        if supports(n, q, min_beyond):
            best = q
    return best


def windowed_percentile(values, q, max_windows=100, min_beyond=MIN_BEYOND):
    """Median over contiguous equal-count windows of each window's q-th
    percentile. values must be in time order. Each window keeps at least
    min_beyond samples beyond q; with fewer than two such windows this is
    the plain percentile of all values. One stall then moves one window,
    not the reported figure.
    """
    n = len(values)
    per_window = max(1, math.ceil(min_beyond * 100.0 / (100.0 - q))) \
        if q < 100 else n
    windows = min(max_windows, n // per_window)
    if windows < 2:
        return percentile(values, q)
    bounds = [round(i * n / windows) for i in range(windows + 1)]
    return statistics.median(
        percentile(values[bounds[i]:bounds[i + 1]], q)
        for i in range(windows))


def quartiles(values):
    """First quartile, median, third quartile, as statistics.quantiles
    (n=4, exclusive method) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf
    return (q3 - q1) / abs(q2)


def worse_by(parent_median, change_median, better):
    """How much worse the change is, as a share of the parent median
    (negative when it is better)."""
    delta = change_median - parent_median
    if better == "higher":
        delta = -delta
    return delta / abs(parent_median)


def pair_verdict(parent, change, better):
    """Gain claim for one metric over paired runs (parent[i] with
    change[i]): the change must win at least nine tenths of all pairs,
    ties counting for neither side, and the medians must differ by more
    than the parent's own interquartile distance.
    """
    if len(parent) != len(change):
        raise ValueError("unpaired runs")
    if len(parent) < 10:
        raise ValueError("a claim needs at least ten pairs")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    separated = abs(change_median - parent_median) > (q3 - q1)
    gain = (wins * 10 >= 9 * len(parent) and separated
            and sign * (change_median - parent_median) > 0)
    return {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "gain": gain,
    }


def regression_verdict(parent, change, better, bound):
    """No-regression check for one metric: 'ok' when the change's median
    is no worse than the parent's by more than bound; 'regressed' when it
    is; 'unresolved' when it is not but the parent's own spread is wider
    than the bound. A change whose every run beats every parent run is
    'ok' regardless of spread.
    """
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    if better == "higher":
        dominated = min(change) > max(parent)
    else:
        dominated = max(change) < min(parent)
    if dominated:
        return "ok"
    if worse_by(parent_median, change_median, better) > bound:
        return "regressed"
    if spread(parent) > bound:
        return "unresolved"
    return "ok"
