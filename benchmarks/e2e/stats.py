"""Robust summaries over trials, and the two-run comparison verdict."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

from .spec import Metric


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of one metric's trials."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a 0 median
    with no spread)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def verdict(metric: Metric, base: List[float],
            change: List[float]) -> Tuple[str, float, float]:
    """Judge *change* against *base* for one metric.

    Returns ``(verdict, worsening, spread)``.  *worsening* is how much
    worse the change's median is (a share of the base median, or an
    amount for absolute metrics; negative when better) and *spread* the
    wider of the two runs' interquartile ranges on the same scale.  When
    the spread exceeds the bound the runs cannot resolve the bound, so
    the verdict is ``unresolved`` — unless every change trial beats every
    base trial.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if metric.absolute:
        worsening = sign * (change_median - base_median)
        spread = max(quartiles(base)[2] - quartiles(base)[0],
                     quartiles(change)[2] - quartiles(change)[0])
    else:
        if base_median == 0:
            worsening = 0.0 if change_median == 0 else math.inf
        else:
            worsening = sign * (change_median - base_median) / abs(base_median)
        spread = max(relative_spread(base), relative_spread(change))
    if spread > metric.bound:
        beats_all = all(sign * (c - b) < 0 for c in change for b in base)
        return ("better" if beats_all else "unresolved"), worsening, spread
    if worsening > metric.bound:
        return "worse", worsening, spread
    if worsening < -metric.bound:
        return "better", worsening, spread
    return "within bound", worsening, spread
