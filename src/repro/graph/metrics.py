"""Topology metrics: the three properties the paper tracks (Section 4.2).

- **degree distribution** (:func:`degree_array`, :func:`degree_histogram`,
  :func:`average_degree`): reliability under failure patterns, epidemic
  spreading speed, communication hot spots;
- **average path length** (:func:`average_path_length`): lower bound on
  dissemination time and cost;
- **clustering coefficient** (:func:`clustering_coefficient`): redundancy
  of dissemination and partitioning risk.

Path lengths use a frontier-based BFS over the CSR arrays (optionally
accelerated by :mod:`scipy.sparse.csgraph` when available); clustering marks
a node's neighbors and counts the marks in their gathered CSR rows.  Both
accept a sampling parameter: estimates are unbiased and the experiment
harness uses them at full paper scale, while tests cross-check the exact
paths against networkx.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

import numpy as np

from repro.graph.snapshot import GraphSnapshot

try:  # scipy is optional at runtime; pure-numpy fallbacks are used without it
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import shortest_path as _sp_shortest_path

    _HAVE_SCIPY = True
except Exception:  # pragma: no cover - exercised only without scipy
    _HAVE_SCIPY = False


def degree_array(snapshot: GraphSnapshot) -> np.ndarray:
    """Undirected degrees aligned with ``snapshot.addresses``."""
    return snapshot.degrees()


def average_degree(snapshot: GraphSnapshot) -> float:
    """Mean undirected degree (0.0 for the empty graph)."""
    if snapshot.n == 0:
        return 0.0
    return float(2.0 * snapshot.edge_count / snapshot.n)


def degree_histogram(snapshot: GraphSnapshot) -> Dict[int, int]:
    """Mapping ``degree -> number of nodes`` (only non-empty bins)."""
    degrees = snapshot.degrees()
    if degrees.size == 0:
        return {}
    counts = np.bincount(degrees)
    return {int(d): int(c) for d, c in enumerate(counts) if c > 0}


# -- clustering ----------------------------------------------------------------


def _local_clustering(
    snapshot: GraphSnapshot, index: int, mark: np.ndarray
) -> float:
    """:func:`local_clustering` over a caller-owned all-``False`` mark
    array of length ``n`` (returned all-``False`` again)."""
    neighbors = snapshot.neighbors(index)
    k = len(neighbors)
    if k < 2:
        return 0.0
    mark[neighbors] = True
    links = int(np.count_nonzero(mark[snapshot.gather_neighbors(neighbors)]))
    mark[neighbors] = False
    # Each edge among neighbors was counted twice.
    return links / (k * (k - 1))


def local_clustering(snapshot: GraphSnapshot, index: int) -> float:
    """Clustering coefficient of one node.

    The number of edges between the node's neighbors divided by the number
    of possible edges between them; 0.0 for degree < 2 (the convention
    networkx uses as well).
    """
    return _local_clustering(
        snapshot, index, np.zeros(snapshot.n, dtype=bool)
    )


def clustering_coefficient(
    snapshot: GraphSnapshot,
    sample: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> float:
    """Average clustering coefficient of the graph.

    Parameters
    ----------
    sample:
        When given and smaller than ``n``, the unweighted average is
        estimated from that many uniformly sampled nodes (without
        replacement) -- an unbiased estimator of the exact average.
    rng:
        RNG for sampling (a fresh seeded one is created if omitted).
    """
    n = snapshot.n
    if n == 0:
        return 0.0
    if sample is not None and sample < n:
        if rng is None:
            rng = random.Random(0)
        nodes = rng.sample(range(n), sample)
    else:
        nodes = range(n)
    mark = np.zeros(n, dtype=bool)
    total = 0.0
    count = 0
    for index in nodes:
        total += _local_clustering(snapshot, index, mark)
        count += 1
    return total / count if count else 0.0


# -- path lengths ----------------------------------------------------------------


def bfs_distances(snapshot: GraphSnapshot, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every node (-1 when unreachable)."""
    dist = np.full(snapshot.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        candidates = snapshot.gather_neighbors(frontier)
        candidates = candidates[dist[candidates] < 0]
        if candidates.size == 0:
            break
        # Duplicate candidates write the same depth; reading the level
        # back deduplicates them without np.unique's hash pass.
        dist[candidates] = depth
        frontier = np.flatnonzero(dist == depth)
    return dist


def average_path_length(
    snapshot: GraphSnapshot,
    n_sources: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> float:
    """Mean shortest-path length over reachable ordered pairs.

    Parameters
    ----------
    n_sources:
        When given and smaller than ``n``, path lengths are averaged over
        BFS trees rooted at that many uniformly sampled sources -- an
        unbiased estimator of the all-pairs average.
    rng:
        RNG for source sampling.

    Notes
    -----
    Unreachable pairs are excluded from the average (the converged overlays
    the paper measures are connected, so this matches its definition; for a
    partitioned graph the value is the within-component average).  Returns
    ``nan`` for graphs with fewer than 2 nodes or no edges.
    """
    n = snapshot.n
    if n < 2 or snapshot.edge_count == 0:
        return float("nan")
    if n_sources is not None and n_sources < n:
        if rng is None:
            rng = random.Random(0)
        sources = rng.sample(range(n), n_sources)
    else:
        sources = list(range(n))
    if _HAVE_SCIPY:
        matrix = _csr_matrix(
            (
                np.ones(len(snapshot.indices), dtype=np.int8),
                snapshot.indices,
                snapshot.indptr,
            ),
            shape=(n, n),
        )
        dists = _sp_shortest_path(
            matrix, method="D", unweighted=True, directed=False, indices=sources
        )
        finite = np.isfinite(dists)
        finite &= dists > 0
        total = float(dists[finite].sum())
        pairs = int(finite.sum())
    else:
        total = 0.0
        pairs = 0
        for source in sources:
            dist = bfs_distances(snapshot, source)
            reachable = dist > 0
            total += float(dist[reachable].sum())
            pairs += int(reachable.sum())
    if pairs == 0:
        return float("nan")
    return total / pairs


# -- the Figure 2/3 triple -----------------------------------------------------


def topology_metrics(
    snapshot: GraphSnapshot,
    clustering_sample: Optional[int] = None,
    path_sources: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Dict[str, float]:
    """Average degree, clustering coefficient and average path length.

    The three properties Figures 2 and 3 plot, in one fixed order:
    clustering draws its node sample from ``rng`` before path length
    draws its BFS sources, so one RNG gives one reproducible triple.
    ``rng`` defaults to a fresh ``random.Random(0)``.
    """
    if rng is None:
        rng = random.Random(0)
    return {
        "average_degree": average_degree(snapshot),
        "clustering": clustering_coefficient(
            snapshot, sample=clustering_sample, rng=rng
        ),
        "average_path_length": average_path_length(
            snapshot, n_sources=path_sources, rng=rng
        ),
    }
