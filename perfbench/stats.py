"""Percentiles with the "at least ten samples beyond" rule."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = ["MIN_BEYOND", "beyond", "highest_reportable", "median", "percentile"]

#: A percentile is reported only with this many samples above it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def highest_reportable(n: int, candidates: Sequence[float] = (99, 95, 90, 75, 50)
                       ) -> Optional[float]:
    """The highest of ``candidates`` with ``MIN_BEYOND`` samples beyond it."""
    for p in sorted(candidates, reverse=True):
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
