"""Order statistics and the compare verdicts used by the benchmark.

Percentiles interpolate linearly between order statistics (the inclusive
method of ``statistics.quantiles``), so ``percentile(v, 50)`` is the median.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Candidate percentiles for a tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND`` of
    ``n`` samples beyond it; the median when even that has fewer."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, sample_count)`` of the tail figure."""
    p = tail_percentile(len(values))
    return percentile(values, p), p, len(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------- compare

IMPROVED = "improved"
NO_WORSE = "no worse within bound"
WORSE = "worse"
UNRESOLVED = "unresolved"
NO_BOUND = "no bound"


def _better(a: float, b: float, higher_is_better: bool) -> bool:
    return a > b if higher_is_better else a < b


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    higher_is_better: bool,
    bound: Optional[float],
) -> Tuple[str, Dict[str, float]]:
    """Classify a change against its parent for one (metric, workload).

    * improved: the change wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ by more than the parent's
      interquartile distance;
    * unresolved: the parent's own spread is wider than the bound, unless
      every change run reads better than every parent run;
    * worse: the change median is worse than the parent median by more
      than ``bound`` times the parent median;
    * otherwise no worse within bound.

    Metrics without a bound can only be classed improved or ``no bound``.
    """
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    wins = sum(1 for p, c in pairs if _better(c, p, higher_is_better))
    losses = sum(1 for p, c in pairs if _better(p, c, higher_is_better))
    facts = {
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "parent_iqr": p_q3 - p_q1,
        "median_diff": c_med - p_med,
    }
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and _better(c_med, p_med, higher_is_better)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        return IMPROVED, facts
    if bound is None:
        return NO_BOUND, facts
    all_better = all(
        _better(c, p, higher_is_better) for c in change for p in parent
    )
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return UNRESOLVED, facts
    worse_by = (p_med - c_med) if higher_is_better else (c_med - p_med)
    if worse_by > bound * abs(p_med):
        return WORSE, facts
    return NO_WORSE, facts
