"""Metrics of the uniform random view topology (the figures' baselines).

The horizontal lines in paper Figures 2 and 3 mark the properties of the
topology in which every view is an independent uniform random sample.
:func:`random_baseline_metrics` measures them on a generated instance (and
caches per ``(n, c)``, since experiment modules ask repeatedly).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.graph.generators import random_view_topology
from repro.graph.metrics import topology_metrics

_cache: Dict[Tuple[int, int, int], Dict[str, float]] = {}


def random_baseline_metrics(
    n: int,
    c: int,
    seed: int = 0,
    clustering_sample: Optional[int] = 1000,
    path_sources: Optional[int] = 50,
) -> Dict[str, float]:
    """Average degree, clustering and path length of the random baseline.

    Parameters mirror the ``metrics`` measurement's settings, and both
    go through :func:`~repro.graph.metrics.topology_metrics`, so baseline
    and overlay numbers are directly comparable.

    Returns a dict with keys ``average_degree``, ``clustering`` and
    ``average_path_length``.
    """
    key = (n, c, seed)
    cached = _cache.get(key)
    if cached is not None:
        return dict(cached)
    rng = random.Random(seed)
    metrics = topology_metrics(
        random_view_topology(n, c, rng),
        clustering_sample=clustering_sample,
        path_sources=path_sources,
        rng=rng,
    )
    _cache[key] = dict(metrics)
    return metrics


def expected_average_degree(n: int, c: int) -> float:
    """Analytic expectation of the random baseline's average degree.

    Each node has ``c`` out-links; an undirected edge merges reciprocal
    pairs, so the expectation is ``2c - c^2/(n-1)`` for ``c < n``.
    """
    if n <= 1:
        return 0.0
    fill = min(c, n - 1)
    return 2.0 * fill - fill * fill / (n - 1)
