"""Summary statistics for degree dynamics (paper Table 2).

Table 2 characterizes the degree of individual nodes over time: 50 nodes
are traced for K = 300 cycles, and the paper reports

- ``D_K``  -- the average node degree over the *whole overlay* in cycle K;
- ``d_bar``   -- the average over the traced nodes of their time-averaged
  degrees ``d_i``;
- ``sqrt(sigma)`` -- the square root of the empirical variance of those
  time averages (variance computed with the ``n - 1`` denominator).

A small ``sqrt(sigma)`` means all nodes oscillate around the same mean
degree -- no emerging hubs; the paper finds it several times larger for
``rand`` view selection than for ``head``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class DegreeDynamics:
    """The Table 2 row for one protocol."""

    final_cycle_mean_degree: float
    """``D_K``: mean degree over all nodes in the final cycle."""

    traced_mean: float
    """``d_bar``: mean of the traced nodes' time-averaged degrees."""

    traced_std: float
    """``sqrt(sigma)``: std (n-1 denominator) of those time averages."""

    n_traced: int
    """Number of traced nodes that stayed alive for the whole window."""

    n_cycles: int
    """Length K of the traced window."""


def degree_dynamics_summary(
    traces: Sequence[Sequence[float]],
    final_cycle_degrees: Sequence[float],
) -> DegreeDynamics:
    """Compute the Table 2 statistics.

    Parameters
    ----------
    traces:
        One degree series per traced node (all the same length K).
        Negative entries mark cycles where the node was dead; nodes with
        any dead cycle are excluded (cannot happen in the paper's setup,
        where tracing happens without churn).
    final_cycle_degrees:
        Degrees of *all* overlay nodes in the final cycle (for ``D_K``).
    """
    matrix = np.asarray(traces, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("traces must be a non-empty 2-D matrix")
    alive = ~(matrix < 0).any(axis=1)
    matrix = matrix[alive]
    if matrix.shape[0] == 0:
        raise ValueError("no traced node stayed alive over the whole window")
    time_averages = matrix.mean(axis=1)
    d_bar = float(time_averages.mean())
    if time_averages.size > 1:
        sigma = float(time_averages.var(ddof=1))
    else:
        sigma = 0.0
    finals = np.asarray(final_cycle_degrees, dtype=np.float64)
    if finals.size == 0:
        raise ValueError("final_cycle_degrees must not be empty")
    return DegreeDynamics(
        final_cycle_mean_degree=float(finals.mean()),
        traced_mean=d_bar,
        traced_std=math.sqrt(sigma),
        n_traced=int(matrix.shape[0]),
        n_cycles=int(matrix.shape[1]),
    )
