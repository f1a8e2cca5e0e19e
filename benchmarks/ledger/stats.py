"""Order statistics shared by the ledger driver, compare.py and the tests."""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """The sample with at least ``fraction`` of the samples below it.

    No interpolation, and on a tie the upper neighbour: when a quantile
    falls exactly between two op types' latency clusters, this picks
    the floor of the slower cluster — which repeats run to run — rather
    than the tail of the faster one, which does not.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values."""
    logs = [math.log(value) for value in values]
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives
    them — the rule the acceptance driver applies to repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
