"""Distribution tools for the degree-distribution study (paper Figure 4).

Figure 4 shows degree distributions on a log-log scale at exponentially
spaced cycles (0, 3, 30, 300).  This module provides the frequency
computation, the exponential cycle schedule and comparison helpers used to
decide whether a distribution is "balanced" (head view selection) or
heavy-tailed (rand view selection).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def log_spaced_cycles(max_cycle: int, per_decade: int = 1) -> List[int]:
    """Exponentially spaced observation cycles in ``[0, max_cycle]``.

    With ``per_decade=1`` and ``max_cycle=300`` this yields the paper's
    schedule ``[0, 3, 30, 300]``.

    >>> log_spaced_cycles(300)
    [0, 3, 30, 300]
    """
    if max_cycle < 0:
        raise ValueError(f"max_cycle must be >= 0, got {max_cycle}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    schedule = [0]
    # Work backwards from max_cycle in factors of 10^(1/per_decade).
    factor = 10.0 ** (1.0 / per_decade)
    value = float(max_cycle)
    reversed_tail: List[int] = []
    while value >= 1.0:
        cycle = int(round(value))
        if not reversed_tail or cycle < reversed_tail[-1]:
            reversed_tail.append(cycle)
        value /= factor
    schedule.extend(sorted(c for c in reversed_tail if c > 0))
    return schedule


def distribution_span(degrees: Sequence[int]) -> int:
    """``max - min`` of a degree sample (0 for empty input).

    A quick balance indicator: converged head-selection overlays have a
    span of a few dozen, rand-selection ones several hundred.
    """
    array = np.asarray(degrees, dtype=np.int64)
    if array.size == 0:
        return 0
    return int(array.max() - array.min())


def tail_weight(degrees: Sequence[int], multiple: float = 2.0) -> float:
    """Fraction of nodes with degree above ``multiple`` times the mean.

    Heavy-tailed (rand view selection) distributions put visible mass
    there; balanced (head) ones essentially none.
    """
    array = np.asarray(degrees, dtype=np.float64)
    if array.size == 0:
        return 0.0
    return float((array > multiple * array.mean()).mean())


def histogram_dict(degrees: Sequence[int]) -> Dict[int, int]:
    """The distribution as a plain ``{degree: count}`` dict."""
    values, counts = np.unique(
        np.asarray(degrees, dtype=np.int64), return_counts=True
    )
    return {int(v): int(c) for v, c in zip(values, counts)}
