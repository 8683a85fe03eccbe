"""The benchmark's arithmetic: percentiles, spreads, interval unions.

Pure functions over plain numbers so the tests in ``test_wallbench.py``
can pin every rule the reported metrics depend on.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a latency report may quote, lowest first.
REPORTABLE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only quoted when at least this many samples lie
#: beyond it; fewer makes it the reading of a handful of outliers.
MIN_TAIL_SAMPLES = 10


def percentile(values, p: float) -> float:
    """The ``p``-th percentile with linear interpolation between order
    statistics (NumPy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * float(p) / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, min_beyond: int = MIN_TAIL_SAMPLES,
                    candidates=REPORTABLE_PERCENTILES) -> float | None:
    """The highest candidate percentile with at least ``min_beyond`` of
    ``n`` samples above it, or ``None`` when not even the median has.

    With 100 samples that is p90 (10 beyond it); p95 needs 200.
    """
    best = None
    for p in candidates:
        # Round away float noise: 100 * (1 - 0.9) is 9.999999999999998.
        if round(n * (100.0 - p) / 100.0, 6) >= min_beyond:
            best = p
    return best


def min_samples_for(p: float, min_beyond: int = MIN_TAIL_SAMPLES) -> int:
    """Fewest samples for which :func:`tail_percentile` admits ``p``."""
    return math.ceil(round(min_beyond * 100.0 / (100.0 - p), 6))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)``
    gives them; 0 for fewer than two values or a zero median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return 0.0 if med == 0 else (q3 - q1) / abs(med)


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals; overlapping
    parts count once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover."""
    inside = [(max(s, start), min(e, end)) for s, e in children
              if e > start and s < end]
    return (end - start) - union_length(inside)


def reuse_ratio(distinct: int, total: int) -> float:
    """Distinct items per attempt (1.0 means nothing was redone); 0.0
    when nothing was attempted."""
    return distinct / total if total else 0.0
