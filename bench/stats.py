"""Order statistics shared by the end-to-end and per-layer reports."""

from __future__ import annotations

import math


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (`q` in 0..1); 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = math.ceil(round(q * len(ordered), 6)) - 1
    return ordered[max(0, min(len(ordered) - 1, index))]


def tail_quantile(n: int, q: float, beyond: int = 10) -> float:
    """`q`, or the highest quantile that leaves `beyond` samples above it.

    With too few samples for any tail (n <= beyond) this falls back to
    the median.
    """
    if n <= beyond:
        return 0.5
    return min(q, (n - beyond) / n)
