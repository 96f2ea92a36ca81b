"""Observers: per-cycle instrumentation hooks for the engines.

An :class:`Observer` registered with an engine is invoked around every
cycle.  The module ships the recorders the experiment harness needs:

- :class:`MetricsRecorder` -- clustering coefficient, average degree and
  average path length per cycle (paper Figures 2 and 3);
- :class:`DegreeTracer` -- per-cycle degree traces of fixed nodes (paper
  Table 2 and Figure 5);
- :class:`DeadLinkCensus` -- dead links per cycle (paper Figure 7);
- :class:`ViewSizeRecorder` -- view fill levels (sanity diagnostics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.descriptor import Address
    from repro.simulation.engine import CycleEngine


class Observer:
    """Base class for engine observers; both hooks default to no-ops.

    ``before_cycle`` runs before any exchange of the upcoming cycle (the
    engine's ``cycle`` attribute still holds the number of *completed*
    cycles).  ``after_cycle`` runs after all exchanges, with ``cycle``
    already incremented.
    """

    def before_cycle(self, engine: "CycleEngine") -> None:
        """Called before the exchanges of each cycle."""

    def after_cycle(self, engine: "CycleEngine") -> None:
        """Called after the exchanges of each cycle."""


class MetricsRecorder(Observer):
    """Record topology metrics after selected cycles.

    Parameters
    ----------
    every:
        Record after every ``every``-th cycle (1 = every cycle).
    clustering_sample:
        Number of nodes used to estimate the clustering coefficient
        (``None`` for exact computation; estimation is unbiased).
    path_sources:
        Number of BFS sources used to estimate average path length
        (``None`` for all-pairs exactness).
    record_initial:
        Also record the metrics of the bootstrap topology (cycle 0), which
        the paper's figures include.
    """

    def __init__(
        self,
        every: int = 1,
        clustering_sample: Optional[int] = 1000,
        path_sources: Optional[int] = 50,
        record_initial: bool = True,
    ) -> None:
        self.every = max(1, every)
        self.clustering_sample = clustering_sample
        self.path_sources = path_sources
        self._record_initial = record_initial
        self.cycles: List[int] = []
        self.clustering: List[float] = []
        self.average_degree: List[float] = []
        self.average_path_length: List[float] = []

    def before_cycle(self, engine: "CycleEngine") -> None:
        if self._record_initial and engine.cycle == 0 and not self.cycles:
            self._record(engine)

    def after_cycle(self, engine: "CycleEngine") -> None:
        if engine.cycle % self.every == 0:
            self._record(engine)

    def _record(self, engine: "CycleEngine") -> None:
        # Imported here to keep repro.simulation importable without numpy
        # consumers pulling the full graph stack at module import time.
        from repro.graph.metrics import (
            average_degree,
            average_path_length,
            clustering_coefficient,
        )
        from repro.graph.snapshot import GraphSnapshot

        snapshot = GraphSnapshot.from_engine(engine)
        self.cycles.append(engine.cycle)
        self.average_degree.append(average_degree(snapshot))
        self.clustering.append(
            clustering_coefficient(
                snapshot, sample=self.clustering_sample, rng=engine.rng
            )
        )
        self.average_path_length.append(
            average_path_length(
                snapshot, n_sources=self.path_sources, rng=engine.rng
            )
        )

    def as_dict(self) -> Dict[str, List[float]]:
        """The recorded series, keyed by metric name."""
        return {
            "cycles": list(self.cycles),
            "clustering": list(self.clustering),
            "average_degree": list(self.average_degree),
            "average_path_length": list(self.average_path_length),
        }


class DegreeTracer(Observer):
    """Trace the undirected degree of fixed nodes after every cycle.

    Crashed traced nodes get degree ``-1`` from that cycle on, so series
    stay aligned.
    """

    def __init__(self, addresses: Sequence["Address"]) -> None:
        self.addresses = list(addresses)
        self.cycles: List[int] = []
        self.series: Dict["Address", List[int]] = {a: [] for a in self.addresses}

    def after_cycle(self, engine: "CycleEngine") -> None:
        from repro.graph.snapshot import GraphSnapshot

        snapshot = GraphSnapshot.from_engine(engine)
        self.cycles.append(engine.cycle)
        for address in self.addresses:
            degree = snapshot.degree_of(address) if address in snapshot else -1
            self.series[address].append(degree)

    def matrix(self) -> List[List[int]]:
        """Traces as a list of rows, one per traced node."""
        return [list(self.series[a]) for a in self.addresses]


class DeadLinkCensus(Observer):
    """Count descriptors pointing at dead nodes after selected cycles."""

    def __init__(self, every: int = 1) -> None:
        self.every = max(1, every)
        self.cycles: List[int] = []
        self.dead_links: List[int] = []

    def after_cycle(self, engine: "CycleEngine") -> None:
        if engine.cycle % self.every == 0:
            self.cycles.append(engine.cycle)
            self.dead_links.append(engine.dead_link_count())


class ViewSizeRecorder(Observer):
    """Record min/mean/max view fill level after selected cycles."""

    def __init__(self, every: int = 1) -> None:
        self.every = max(1, every)
        self.cycles: List[int] = []
        self.min_size: List[int] = []
        self.mean_size: List[float] = []
        self.max_size: List[int] = []

    def after_cycle(self, engine: "CycleEngine") -> None:
        if engine.cycle % self.every != 0:
            return
        sizes = engine.view_sizes()
        if not sizes:
            return
        self.cycles.append(engine.cycle)
        self.min_size.append(min(sizes))
        self.mean_size.append(sum(sizes) / len(sizes))
        self.max_size.append(max(sizes))
