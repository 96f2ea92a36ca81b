"""Sampling-quality analysis: how far is ``get_peer()`` from uniform?

The paper's central question is the *quality* of the sample stream a peer
sampling service produces (Section 2: "there is a trade-off between the
required quality of sampling and the performance cost").  This module
quantifies that quality directly on the service API, complementing the
topology-level analysis of :mod:`repro.graph`:

- :func:`sample_frequencies` -- empirical global hit distribution of
  repeated ``get_peer`` calls across many callers;
- :func:`chi_square_uniformity` -- the chi-square statistic (and its
  normalized form) of that distribution against the uniform null;
- :func:`total_variation_from_uniform` -- L1 distance to uniform in
  [0, 1].

The ``sampling-distance`` measurement (:mod:`repro.workloads.measure`)
combines them over a run's final overlay.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Sequence

from repro.core.descriptor import Address


def sample_frequencies(
    services: Sequence[object],
    calls_per_service: int,
) -> Dict[Address, int]:
    """Pooled hit counts of ``get_peer`` across many callers.

    Every service contributes ``calls_per_service`` samples; the result
    maps each sampled address to its total hit count.  ``None`` results
    (empty views) are skipped.
    """
    if calls_per_service < 1:
        raise ValueError(
            f"calls_per_service must be >= 1, got {calls_per_service}"
        )
    counts: Counter = Counter()
    for service in services:
        for _ in range(calls_per_service):
            peer = service.get_peer()
            if peer is not None:
                counts[peer] += 1
    return dict(counts)


def chi_square_uniformity(
    counts: Dict[Address, int],
    population: Sequence[Address],
) -> float:
    """Chi-square statistic of ``counts`` against the uniform distribution.

    Addresses of ``population`` absent from ``counts`` contribute their
    full expected count.  Returns the *normalized* statistic
    ``chi2 / degrees_of_freedom`` so that values near 1.0 mean
    "consistent with uniform" and values far above 1.0 mean structure.
    """
    n = len(population)
    if n < 2:
        raise ValueError("population must contain at least 2 addresses")
    total = sum(counts.get(address, 0) for address in population)
    if total == 0:
        raise ValueError("counts contain no samples over the population")
    expected = total / n
    chi2 = sum(
        (counts.get(address, 0) - expected) ** 2 / expected
        for address in population
    )
    return chi2 / (n - 1)


def total_variation_from_uniform(
    counts: Dict[Address, int],
    population: Sequence[Address],
) -> float:
    """Total-variation distance between the hit distribution and uniform.

    0.0 means exactly uniform over ``population``; 1.0 means maximally
    concentrated.
    """
    n = len(population)
    if n == 0:
        raise ValueError("population must not be empty")
    total = sum(counts.get(address, 0) for address in population)
    if total == 0:
        raise ValueError("counts contain no samples over the population")
    uniform = 1.0 / n
    return 0.5 * sum(
        abs(counts.get(address, 0) / total - uniform)
        for address in population
    )
