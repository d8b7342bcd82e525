"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = ["MIN_BEYOND", "median", "percentile"]

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank *q*-th percentile, or None when it is not supported.

    The value at rank ``ceil(q/100 * n)`` of the sorted samples; None
    unless at least :data:`MIN_BEYOND` samples rank above it, so a
    reported tail always rests on ten observations beyond it.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must be in (0, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return float(sorted(values)[rank - 1])


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))

