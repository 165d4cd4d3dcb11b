"""Order statistics for operation timings."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, q: float) -> float | None:
    """The q-th percentile, or None when fewer than MIN_TAIL samples lie beyond it."""
    n = len(values)
    if n - max(1, math.ceil(q / 100 * n)) < MIN_TAIL:
        return None
    return percentile(values, q)


def median(values) -> float:
    return statistics.median(values)


def median_of_best(groups) -> float:
    """Median over groups of each group's fastest sample.

    Each group repeats one operation on one input. On a host whose speed
    drifts for minutes at a time, interference only ever adds time, so the
    fastest repeat is the steadiest estimate of an operation's own cost; the
    median over inputs keeps the typical input, not the cheapest one.
    """
    return median([min(samples) for samples in groups])
