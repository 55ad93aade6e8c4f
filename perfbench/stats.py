"""Summary statistics and ratio helpers shared by the runner and the tests."""

from __future__ import annotations

import math
import statistics

# Percentile levels tried by ``tail_percentile``, highest first.
PERCENTILE_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, min_beyond: int = MIN_BEYOND):
    """Highest level of ``PERCENTILE_LEVELS`` with ``min_beyond`` samples above it.

    Uses the nearest-rank percentile: the value at 1-based rank
    ``ceil(p / 100 * n)`` of the sorted samples, so ``n - rank`` samples lie
    beyond it. Returns ``(level, value)``, or ``None`` when even the median
    has fewer than ``min_beyond`` samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for level in PERCENTILE_LEVELS:
        rank = max(1, math.ceil(round(level * n / 100.0, 6)))  # round off float noise
        if n - rank >= min_beyond:
            return level, float(xs[rank - 1])
    return None


def summarize(values) -> dict:
    """Median, tail percentile (or null) and sample count of one metric."""
    tail = tail_percentile(values)
    return {
        "median": median(values),
        "percentile": None if tail is None else tail[0],
        "percentile_value": None if tail is None else tail[1],
        "n": len(values),
    }


def quartile_spread(values) -> dict:
    """Quartiles as ``statistics.quantiles(n=4)`` gives them, and IQR / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2 if q2 else math.inf}


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0

