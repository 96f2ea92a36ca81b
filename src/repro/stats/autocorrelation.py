"""Autocorrelation of degree time series (paper Figure 5).

The paper plots, for a fixed node's degree series ``d(1..K)``, the lag-k
autocorrelation

    r_k = sum_{j=1}^{K-k} (d_j - mean)(d_{j+k} - mean)
          / sum_{j=1}^{K} (d_j - mean)^2

together with a 99% confidence band (``+- z_{0.995} / sqrt(K)``) under the
null hypothesis of an i.i.d. series.  A series staying inside the band is
"practically random" -- the paper's verdict for (rand,head,pushpull).
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np


def autocorrelation(series: Sequence[float], max_lag: int) -> np.ndarray:
    """Autocorrelation ``r_0 .. r_max_lag`` with the paper's normalization.

    ``r_0`` is always 1 (for a non-constant series).  Lags beyond
    ``len(series) - 1`` are reported as 0.

    Raises
    ------
    ValueError
        If the series is empty or ``max_lag`` is negative.
    """
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0:
        raise ValueError("autocorrelation of an empty series")
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    centered = values - values.mean()
    denominator = float(np.dot(centered, centered))
    result = np.zeros(max_lag + 1, dtype=np.float64)
    if denominator == 0.0:
        # A constant series: correlation undefined; report r_0 = 1, rest 0,
        # matching the convention of most statistics packages.
        result[0] = 1.0
        return result
    k_max = min(max_lag, values.size - 1)
    for k in range(k_max + 1):
        if k == 0:
            result[0] = 1.0
        else:
            result[k] = float(np.dot(centered[:-k], centered[k:])) / denominator
    return result


def confidence_band(n_samples: int, level: float = 0.99) -> float:
    """Half-width of the autocorrelation confidence band.

    Under the null of an i.i.d. series of length ``n_samples``, sample
    autocorrelations are asymptotically N(0, 1/n), so the two-sided
    ``level`` band is ``z_{(1+level)/2} / sqrt(n)``.

    >>> round(confidence_band(300), 4)
    0.1487
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    return z / (n_samples ** 0.5)


def fraction_outside_band(
    correlations: Sequence[float], band: float, skip_lag_zero: bool = True
) -> float:
    """Fraction of lags whose autocorrelation leaves ``+-band``.

    Under the i.i.d. null about ``1 - level`` of lags fall outside; a much
    larger fraction signals structure (periodicity, drift).
    """
    values = np.asarray(correlations, dtype=np.float64)
    if skip_lag_zero:
        values = values[1:]
    if values.size == 0:
        return 0.0
    return float((np.abs(values) > band).mean())
