"""Summary statistics the harness reports.

Pure functions over plain lists of floats, so the unit tests in
``perfbench/tests`` can pin their rules on synthetic data.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p999", 0.999),
    ("p99", 0.99),
    ("p90", 0.90),
)

#: A tail percentile is reported only with at least this many samples
#: strictly beyond its rank.
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    """Zero-based nearest-rank index of quantile ``q`` among ``count``."""
    return max(0, min(count - 1, math.ceil(q * count) - 1))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), q)]


def tail_percentile(
    values: Sequence[float], highest: str = "p999"
) -> Optional[Tuple[str, float]]:
    """The highest of p90/p99/p999, up to ``highest``, that has at least
    ``MIN_BEYOND`` samples beyond it, as ``(label, value)``; ``None``
    when even p90 lacks them.

    Capping at the percentile a workload declares keeps the metric's
    meaning fixed when a faster machine collects more samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    labels = [label for label, _ in TAIL_QUANTILES]
    for label, q in TAIL_QUANTILES[labels.index(highest):]:
        if count and count - 1 - _rank(count, q) >= MIN_BEYOND:
            return label, ordered[_rank(count, q)]
    return None


def fit_fixed_per_unit(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[float, float]:
    """Ordinary least-squares fit ``y = fixed + per_unit * x``; returns
    ``(fixed, per_unit)``.  Needs at least two distinct ``x`` values."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys differ in length")
    if len(set(xs)) < 2:
        raise ValueError("a line needs at least two distinct x values")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    per_unit = sxy / sxx
    return mean_y - per_unit * mean_x, per_unit
