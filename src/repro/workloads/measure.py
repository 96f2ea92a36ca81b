"""The measurement vocabulary: what a run records, and when it reads it.

Every entry of :data:`MEASUREMENTS` declares *when* it reads the overlay
-- after every cycle, after every ``metrics_every``-th cycle, after every
cycle past the first catastrophic failure, or once after the run -- and
*what* it reads from that moment's :class:`_Instant`: the graph snapshot,
the dead-link count and the view fill levels, each built lazily and at
most once, or the engine and runtime themselves.

:func:`measure` installs one observer per run for all of its per-cycle
entries, so a cycle that several entries read builds one snapshot.  The
end-of-run entries reuse the final cycle's instant when no
``before_cycle`` has fired since it was taken (on the cycle family,
nothing runs between the last cycle and the end), and otherwise share
one fresh instant.  Readings never mutate the overlay; ``metrics`` and
the service measurements draw from the engine RNG, in the order the
entries are named.
"""

from __future__ import annotations

import collections
import functools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.simulation.trace import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.snapshot import GraphSnapshot

__all__ = ["MEASUREMENTS", "Measurement", "measure", "read_now"]

EVERY_CYCLE = "every cycle"
EVERY_SAMPLE = "every metrics_every cycles"
AFTER_FAILURE = "every cycle after the first catastrophic failure"
AT_END = "once, after the run"


class _Instant:
    """The overlay at one moment; each view of it is built at most once."""

    def __init__(self, run: "_Run") -> None:
        self.run = run
        self.engine = run.runtime.engine

    @functools.cached_property
    def snapshot(self) -> "GraphSnapshot":
        # Imported here: the graph stack pulls in scipy, which importing
        # repro (every spawned worker does) should not pay for.
        from repro.graph.snapshot import GraphSnapshot

        return GraphSnapshot.from_engine(self.engine)

    @functools.cached_property
    def dead_links(self) -> int:
        return self.engine.dead_link_count()

    @functools.cached_property
    def view_sizes(self) -> List[int]:
        return self.engine.view_sizes()


class Measurement(NamedTuple):
    """One recordable quantity of the vocabulary."""

    description: str
    when: str
    """One of ``EVERY_CYCLE``, ``EVERY_SAMPLE``, ``AFTER_FAILURE`` or
    ``AT_END``."""
    read: Callable[[_Instant], Any]
    """The result (``AT_END``), or one cycle's row: a tuple, or ``None``
    to record nothing for that cycle."""
    layout: Optional[Callable[[List[int], List[Any]], Any]] = None
    """Per-cycle entries: ``(cycles, rows) -> result``."""


def _columns(*names: str) -> Callable[[List[int], List[Any]], Dict[str, Any]]:
    """The layout ``{"cycles": [...], name: [row[i], ...], ...}``."""

    def layout(cycles: List[int], rows: List[Any]) -> Dict[str, Any]:
        result: Dict[str, Any] = {"cycles": cycles}
        for index, name in enumerate(names):
            result[name] = [row[index] for row in rows]
        return result

    return layout


class _Run(Observer):
    """One run's measurements: the per-cycle series and the last instant."""

    def __init__(self, runtime, scale, names: Sequence[str]) -> None:
        if scale is None:
            from repro.experiments.common import current_scale

            scale = current_scale()
        self.runtime = runtime
        self.scale = scale
        self.names = tuple(names)
        self.series = {
            name: ([], [])
            for name in self.names
            if MEASUREMENTS[name].when != AT_END
        }
        self._last: Optional[_Instant] = None

    # -- per-run constants the entries read --------------------------------

    @functools.cached_property
    def traced(self) -> List[Any]:
        return self.runtime.bootstrap_addresses[: self.scale.traced_nodes]

    @functools.cached_property
    def attackers(self) -> frozenset:
        handle = self.runtime.adversary
        return frozenset(handle.attackers if handle is not None else ())

    @functools.cached_property
    def victims(self) -> tuple:
        handle = self.runtime.adversary
        return tuple(handle.victims) if handle is not None else ()

    @functools.cached_property
    def first_failure(self) -> int:
        # Without a failure event the window is the whole run.
        from repro.workloads.spec import CatastrophicFailure

        return min(
            (
                event.at_cycle
                for event in self.runtime.spec.events_of(CatastrophicFailure)
            ),
            default=0,
        )

    # -- the observer --------------------------------------------------------

    def _due(self, when: str, cycle: int) -> bool:
        if when == EVERY_SAMPLE:
            return cycle % max(1, self.scale.metrics_every) == 0
        if when == AFTER_FAILURE:
            return cycle > self.first_failure
        return True

    def before_cycle(self, engine) -> None:
        self._last = None

    def after_cycle(self, engine) -> None:
        instant = _Instant(self)
        for name, (cycles, rows) in self.series.items():
            entry = MEASUREMENTS[name]
            if self._due(entry.when, engine.cycle):
                row = entry.read(instant)
                if row is not None:
                    cycles.append(engine.cycle)
                    rows.append(row)
        self._last = instant

    def results(self) -> Dict[str, Any]:
        """Every named entry's result, in the order they were named."""
        final = self._last or _Instant(self)
        results: Dict[str, Any] = {}
        for name in self.names:
            entry = MEASUREMENTS[name]
            if entry.when == AT_END:
                results[name] = entry.read(final)
            else:
                cycles, rows = self.series[name]
                results[name] = entry.layout(list(cycles), rows)
        return results


def measure(
    runtime, names: Sequence[str], scale=None
) -> Callable[[], Dict[str, Any]]:
    """Record ``names`` over ``runtime``'s run; returns the extractor to
    call once the run is over (``{name: result}``).

    Call after the bootstrap and before the run: the per-cycle entries
    read from the next completed cycle on.  ``scale`` supplies the
    entries' settings (``metrics_every``, ``clustering_sample``,
    ``path_sources``, ``traced_nodes``) and defaults to the ambient
    scale, as in :func:`~repro.workloads.runtime.prepare_run`.
    """
    run = _Run(runtime, scale, names)
    if run.series:
        runtime.add_observer(run)
    return run.results


def read_now(runtime, name: str, scale=None) -> Any:
    """``name``'s reading of the overlay as it stands, in the entry's
    result layout (a per-cycle entry's series then has at most one row,
    at the engine's current cycle)."""
    entry = MEASUREMENTS[name]
    row = entry.read(_Instant(_Run(runtime, scale, (name,))))
    if entry.when == AT_END:
        return row
    if row is None:
        return entry.layout([], [])
    return entry.layout([runtime.engine.cycle], [row])


# -- the entries --------------------------------------------------------------


def _metrics(instant: _Instant):
    from repro.graph.metrics import topology_metrics

    scale = instant.run.scale
    metrics = topology_metrics(
        instant.snapshot,
        clustering_sample=scale.clustering_sample,
        path_sources=scale.path_sources,
        rng=instant.engine.rng,
    )
    return (
        metrics["clustering"],
        metrics["average_degree"],
        metrics["average_path_length"],
    )


def _view_sizes(instant: _Instant):
    sizes = instant.view_sizes
    if not sizes:
        return None
    return min(sizes), sum(sizes) / len(sizes), max(sizes)


def _degree_trace(instant: _Instant):
    snapshot = instant.snapshot
    # Crashed traced nodes read -1, so the series stay aligned.
    return tuple(
        snapshot.degree_of(address) if address in snapshot else -1
        for address in instant.run.traced
    )


def _node_major(cycles: List[int], rows: List[Any]) -> Dict[str, Any]:
    return {"cycles": cycles, "series": [list(node) for node in zip(*rows)]}


def _eclipse_exposure(instant: _Instant):
    engine, run = instant.engine, instant.run
    entries = hits = 0
    for victim in run.victims:
        if not engine.is_alive(victim):
            continue
        for descriptor in engine.node(victim).view:
            entries += 1
            if descriptor.address in run.attackers:
                hits += 1
    return (hits / entries if entries else 0.0,)


def _dead_links_initial(instant: _Instant) -> Optional[int]:
    from repro.workloads.runtime import FailureHandle

    # Earliest crash, not declaration order: must agree with the
    # dead-links-healing window (min at_cycle) when a spec schedules
    # several failures out of chronological order.
    handles = [
        handle
        for handle in instant.run.runtime.handles
        if isinstance(handle, FailureHandle)
    ]
    if not handles:
        return None
    return min(handles, key=lambda h: h.at_cycle).dead_links_after


def _components(instant: _Instant) -> List[int]:
    from repro.graph.components import component_sizes

    return component_sizes(instant.snapshot)


def _degrees(instant: _Instant) -> Dict[str, float]:
    degrees = instant.snapshot.degrees()
    if degrees.size == 0:
        return {"mean": 0.0, "std": 0.0, "min": 0, "max": 0}
    return {
        "mean": float(degrees.mean()),
        "std": float(degrees.std()),
        "min": int(degrees.min()),
        "max": int(degrees.max()),
    }


# The service measurements run after the run and after the record's
# views_digest, over the final overlay: get_peer draws never mutate
# views, and the engine RNG is byte-identical across a family post-run,
# so their results are too.


def _broadcast_coverage(instant: _Instant) -> Dict[str, Any]:
    from repro.services import AntiEntropyBroadcast, sampling_services

    result = AntiEntropyBroadcast(
        sampling_services(instant.engine), fanout=2, mode="push"
    ).run()
    return {
        "coverage": list(result.coverage),
        "rounds": result.rounds,
        "covered": result.covered,
        "stale_samples": result.stale_samples,
    }


def _aggregation_variance(instant: _Instant) -> Dict[str, Any]:
    from repro.services import PushPullAveraging, sampling_services

    engine = instant.engine
    result = PushPullAveraging(
        sampling_services(engine), rounds=15, rng=engine.rng
    ).run()
    return {
        "variances": list(result.variances),
        "reduction_factor": result.reduction_factor,
        "stale_samples": result.stale_samples,
    }


def _search_hit_rate(instant: _Instant) -> Dict[str, Any]:
    from repro.services import RandomWalkSearch, sampling_services, scatter_key

    services = sampling_services(instant.engine)
    rng = instant.engine.rng
    # ~1% replication (at least one copy), TTL sized so an ideal uniform
    # walk hits with high probability -- the gap to 100% is then the
    # sampling quality the cell is measuring.
    copies = max(1, len(services) // 100)
    result = RandomWalkSearch(
        services,
        scatter_key(list(services), copies, rng),
        ttl=min(256, 4 * max(1, len(services) // copies)),
        rng=rng,
    ).run(queries=min(64, len(services)))
    return {
        "hit_rate": result.hit_rate,
        "mean_hops": result.mean_hops,
        "queries": result.queries,
        "holders": result.holders,
        "ttl": result.ttl,
        "stale_samples": result.stale_samples,
    }


def _indegree_concentration(instant: _Instant) -> Dict[str, Any]:
    attackers = instant.run.attackers
    # Dead targets count too (an attacker may have crashed), so this
    # tallies the rows rather than edge_arrays(), which drops them.
    indegree: collections.Counter = collections.Counter()
    for _, peers, _ in instant.engine.view_rows():
        indegree.update(peers)
    total = sum(indegree.values())
    attacker_links = sum(indegree.get(a, 0) for a in attackers)
    return {
        "total_links": total,
        "attacker_links": attacker_links,
        "attacker_share": attacker_links / total if total else 0.0,
        "max_indegree_share": (
            max(indegree.values()) / total if total else 0.0
        ),
        "n_attackers": len(attackers),
    }


def _sampling_distance(instant: _Instant) -> Dict[str, Any]:
    from repro.services import sampling_services
    from repro.stats.sampling_quality import (
        chi_square_uniformity,
        sample_frequencies,
        total_variation_from_uniform,
    )

    attackers = instant.run.attackers
    engine = instant.engine
    population = engine.addresses()
    honest = [
        service
        for address, service in sampling_services(engine).items()
        if address not in attackers
    ]
    counts = sample_frequencies(honest, calls_per_service=25)
    result: Dict[str, Any] = {
        "population": len(population),
        "honest_callers": len(honest),
        "samples": sum(counts.values()),
        "total_variation": None,
        "normalized_chi_square": None,
    }
    # Distances are only defined over samples that actually land in the
    # current population: a fully eclipsed run can leave every honest
    # sample pointing at churned-out attackers, making the in-population
    # total zero even though ``counts`` is non-empty.
    in_population = sum(counts.get(address, 0) for address in population)
    if len(population) >= 2 and in_population:
        result["total_variation"] = total_variation_from_uniform(
            counts, population
        )
        result["normalized_chi_square"] = chi_square_uniformity(
            counts, population
        )
    return result


_DEAD_LINKS = _columns("dead_links")

MEASUREMENTS: Dict[str, Measurement] = {
    "metrics": Measurement(
        "clustering / average degree / path length per cycle (Figure 2/3)",
        EVERY_SAMPLE,
        _metrics,
        _columns("clustering", "average_degree", "average_path_length"),
    ),
    "dead-links": Measurement(
        "dead links after every cycle (Figure 7)",
        EVERY_CYCLE,
        lambda instant: (instant.dead_links,),
        _DEAD_LINKS,
    ),
    "dead-links-healing": Measurement(
        "dead links after every cycle following the first "
        "catastrophic-failure (the Figure 7 healing window; the whole "
        "run when no failure event is scheduled)",
        AFTER_FAILURE,
        lambda instant: (instant.dead_links,),
        _DEAD_LINKS,
    ),
    "dead-links-initial": Measurement(
        "dead links immediately after the catastrophic-failure crash, "
        "before any healing exchange (Figure 7's 'initial'; null without "
        "a failure event)",
        AT_END,
        _dead_links_initial,
    ),
    "view-sizes": Measurement(
        "min/mean/max view fill level",
        EVERY_SAMPLE,
        _view_sizes,
        _columns("min", "mean", "max"),
    ),
    "degree-trace": Measurement(
        "per-cycle degrees of the first traced_nodes bootstrap nodes "
        "(Table 2 / Figure 5)",
        EVERY_CYCLE,
        _degree_trace,
        _node_major,
    ),
    "components": Measurement(
        "connected component sizes of the final overlay (Table 1)",
        AT_END,
        _components,
    ),
    "degrees": Measurement(
        "degree distribution summary of the final overlay (Figure 4)",
        AT_END,
        _degrees,
    ),
    "broadcast-coverage": Measurement(
        "push rumor spreading over the final overlay: per-round informed "
        "counts, rounds-to-coverage and stale-sample count "
        "(repro.services.AntiEntropyBroadcast)",
        AT_END,
        _broadcast_coverage,
    ),
    "aggregation-variance": Measurement(
        "push-pull averaging over the final overlay: per-round variance "
        "decay and stale-sample count (repro.services.PushPullAveraging)",
        AT_END,
        _aggregation_variance,
    ),
    "search-hit-rate": Measurement(
        "TTL random-walk lookups over the final overlay: hit rate, mean "
        "hops and stale-sample count (repro.services.RandomWalkSearch)",
        AT_END,
        _search_hit_rate,
    ),
    "indegree-concentration": Measurement(
        "in-degree mass captured by the adversary in the final overlay: "
        "attacker link share and the single largest in-degree share "
        "(zeros without an adversary block)",
        AT_END,
        _indegree_concentration,
    ),
    "eclipse-exposure": Measurement(
        "per-cycle fraction of victim view entries pointing at "
        "attackers (empty exposure without eclipse victims)",
        EVERY_CYCLE,
        _eclipse_exposure,
        _columns("exposure"),
    ),
    "sampling-distance": Measurement(
        "distance of honest nodes' pooled getPeer() streams from the "
        "uniform distribution over the final overlay: total variation "
        "and normalized chi-square (repro.stats.sampling_quality)",
        AT_END,
        _sampling_distance,
    ),
}
"""Measurements selectable by name in an
:class:`~repro.workloads.plan.ExperimentPlan`."""
