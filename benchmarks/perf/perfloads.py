"""The five workloads of the performance ledger.

All run ``(rand,head,pushpull)`` at c=30, the paper's flagship instance
and view size.  The sizes are fixed by :class:`Sizes` (the defaults are
the ledger's; tests build tiny ones), the seed is an argument.  Each
workload is a closed loop driven from this process: the simulations are
batch runs, the sharded one uses two worker processes, and the live one
has one application thread beside the asyncio thread.

A workload is four steps -- ``setup``, ``run``, ``teardown``, ``verify``
-- so that :func:`run_pass` can rehearse the set-up (``setup_s`` is a
median of several), time the whole pass, always tear down, and check the
outputs after the clock has stopped.  ``extras`` holds the additional
runs the per-layer differences need; only the traced run makes them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import random
import statistics
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codec import (
    decode_frame,
    decode_signed_frame,
    encode_message,
    encode_signed_message,
)
from repro.core.config import NetworkConfig, ProtocolConfig
from repro.core.descriptor import NodeDescriptor
from repro.core.service import PeerSamplingService
from repro.experiments.common import Scale, make_engine
from repro.graph.components import component_sizes
from repro.graph.metrics import (
    average_degree,
    average_path_length,
    bfs_distances,
    clustering_coefficient,
)
from repro.graph.snapshot import GraphSnapshot
from repro.net.cluster import LocalCluster
from repro.simulation._fastcore import load_accelerator
from repro.simulation.scenarios import random_bootstrap
from repro.workloads import (
    CatastrophicFailure,
    ContinuousChurn,
    ExperimentPlan,
    ScenarioSpec,
    prepare_run,
    run_plan,
    views_digest,
)

from perfkit import (
    Hygiene,
    Tracer,
    peak_rss_mb,
    percentile,
    summarize,
    tail,
)

PROTOCOL = "(rand,head,pushpull)"
VIEW_SIZE = 30
SETUP_REPEATS = 3
"""Set-ups per pass (two rehearsals and the pass's own); ``setup_s`` is
their median."""


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (defaults: the ledger's fixed sizes)."""

    large_nodes: int = 100_000
    fast_cycles: int = 16
    event_cycles: int = 12
    churn_per_cycle: int = 100
    """Joins and, separately, leaves per cycle on ``event_churn_100k``."""
    sharded_cycles: int = 16
    shards: int = 2
    cell_nodes: int = 10_000
    cell_cycles: int = 40
    cell_failure_at: int = 30
    cell_metrics_every: int = 10
    live_daemons: int = 64
    live_rounds: int = 150
    live_round_trips: int = 5_000
    live_cycle_seconds: float = 0.05
    live_draw_seconds: float = 3.0
    """Back-to-back draws, in windows of ``live_window_seconds`` (the
    rate is the median over the windows' rates) ..."""
    live_window_seconds: float = 0.1
    live_draws: int = 200_000
    """... then this many individually timed ones (the percentiles)."""
    live_slices: int = 5
    """A pass alternates this many times between a slice of phase A and
    a slice of phase B, so both phases sample the whole pass and a slow
    stretch of the host lands on all four live metrics alike."""
    live_warm_seconds: float = 0.2
    """Untimed draws on each fresh free-running cluster, while its
    daemons leave their jittered start."""
    micro_loops: int = 20_000
    """Iterations of the codec / protocol / service micro-loops."""
    gate_nodes: int = 2_000
    gate_cycles: int = 5
    sample_nodes: int = 1_000
    """Nodes read through ``engine.node(a)`` for the fingerprint."""


class CheckFailed(Exception):
    """A correctness or hygiene check failed; the message names it."""


@dataclasses.dataclass
class Context:
    """What one pass of one workload gets."""

    sizes: Sizes
    seed: int
    tracer: Tracer
    first_pass: bool = True
    """The first pass of a run makes the expensive output checks (later
    ones only have to reproduce its fingerprint) and reads the peak RSS
    (later ones inherit the high-water mark of those checks)."""


@dataclasses.dataclass
class Measured:
    """What a workload's ``run`` hands back."""

    metrics: Dict[str, float]
    """End-to-end metrics defined on the workload, bar the generic
    ``setup_s`` / ``wall_s`` / ``failed_share`` / ``peak_rss_mb``."""
    samples: Dict[str, List[float]]
    """Timing sample sets, in seconds, by name."""
    attempted: int
    failed: int
    counters: Dict[str, int]
    """Exact counters; part of the fingerprint."""
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    """Per-layer metrics that fall out of the pass's own timings."""


@dataclasses.dataclass
class PassResult:
    metrics: Dict[str, float]
    summaries: Dict[str, Dict[str, object]]
    attempted: int
    failed: int
    fingerprint: str
    counters: Dict[str, int]
    layers: Dict[str, float]


def load_core() -> Tuple[bool, float]:
    """Load (first time in a checkout: compile) the C core.

    Returns whether it is available and how long loading took; part of
    every workload's set-up.
    """
    start = time.perf_counter()
    accelerator = load_accelerator()
    return accelerator is not None, time.perf_counter() - start


# -- helpers -----------------------------------------------------------------


def _config() -> ProtocolConfig:
    return ProtocolConfig.from_label(PROTOCOL, view_size=VIEW_SIZE)


def _scale(n_nodes: int, cycles: int, metrics_every: int = 10) -> Scale:
    """An inline scale, so no ``$REPRO_SCALE`` preset leaks into a run."""
    return Scale(
        name="perf",
        n_nodes=n_nodes,
        view_size=VIEW_SIZE,
        cycles=cycles,
        growth_cycles=1,
        runs=1,
        traced_nodes=1,
        removal_repeats=1,
        metrics_every=metrics_every,
        clustering_sample=1000,
        path_sources=50,
    )


def _prepare(
    engine: str,
    n_nodes: int,
    cycles: int,
    seed: int,
    events: Sequence[Any] = (),
    latency: Optional[float] = None,
    loss: Optional[float] = None,
    **engine_kwargs: Any,
):
    spec = ScenarioSpec(
        name=f"perf-{engine}",
        bootstrap="random",
        cycles=cycles,
        events=tuple(events),
        latency=latency,
        loss=loss,
    )
    return prepare_run(
        spec,
        _config(),
        scale=_scale(n_nodes, cycles),
        seed=seed,
        engine=engine,
        n_nodes=n_nodes,
        cycles=cycles,
        **engine_kwargs,
    )


def _close(runtime) -> None:
    close = getattr(runtime.engine, "close", None)
    if close is not None:
        close()


def _timed_cycles(ctx: Context, runtime, cycles: int, span: str) -> List[float]:
    """One ``run_to_cycle`` at a time, first cycle included."""
    times = []
    for cycle in range(1, cycles + 1):
        with ctx.tracer.span(span) as one:
            runtime.run_to_cycle(cycle)
        times.append(one.seconds)
    return times


def _cycle_layers(prefix: str, times: List[float]) -> Dict[str, float]:
    return {
        f"{prefix}.cycle_s": statistics.median(times),
        f"{prefix}.cycle_tail_s": tail(times)[1],
    }


def sample_digest(engine, n_nodes: int, sample_nodes: int) -> str:
    """Digest of a fixed node sample read through ``engine.node(a)``.

    The sample is the same for every seed and run (bootstrap addresses
    are ``0..n-1``); nodes that churn removed are recorded as dead.
    """
    chosen = sorted(
        random.Random(0).sample(range(n_nodes), min(sample_nodes, n_nodes))
    )
    h = hashlib.sha256()
    for address in chosen:
        if engine.is_alive(address):
            view = [
                (d.address, d.hop_count) for d in engine.node(address).view
            ]
        else:
            view = None
        h.update(f"{address}:{view!r}\n".encode())
    return h.hexdigest()


def is_one_component(views) -> bool:
    """Whether a *static* overlay's communication graph is connected.

    On a static overlay bootstrapped by ``random_bootstrap`` the address
    of node ``i`` is ``i`` and every descriptor points at a live node,
    so a symmetrised CSR comes straight out of the views by one sort.
    ``GraphSnapshot.from_views`` / ``from_edge_arrays`` would do, but
    cost ten seconds at N=10^5 (per-edge dictionary lookups, then an
    ``np.unique`` that a breadth-first search does not need).
    """
    n = len(views)
    lengths = np.fromiter(
        (len(entries) for entries in views.values()), dtype=np.int64, count=n
    )
    dst = np.fromiter(
        (d.address for entries in views.values() for d in entries),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    src = np.repeat(np.arange(n, dtype=np.int64), lengths)
    tails = np.concatenate([src, dst])
    heads = np.concatenate([dst, src])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    snapshot = GraphSnapshot(
        list(views), indptr, heads[np.argsort(tails, kind="stable")]
    )
    return bool((bfs_distances(snapshot, 0) >= 0).all())


def _share(total: int, parts: int, index: int) -> int:
    """Size of part ``index`` when ``total`` is cut into ``parts``."""
    return total * (index + 1) // parts - total * index // parts


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _fingerprint(counters: Dict[str, int], digest: str) -> str:
    body = ",".join(f"{k}={counters[k]}" for k in sorted(counters))
    return hashlib.sha256(f"{body};{digest}".encode()).hexdigest()


# -- the small-N differential gate -------------------------------------------


def _gate_run(ctx: Context, engine: str, **kwargs: Any) -> Tuple[str, float]:
    sizes = ctx.sizes
    with ctx.tracer.span(f"gate.{engine}") as run:
        runtime = _prepare(
            engine, sizes.gate_nodes, sizes.gate_cycles, ctx.seed, **kwargs
        )
        try:
            runtime.run_to_end()
        finally:
            _close(runtime)
    return runtime.views_digest(), run.seconds


def differential_gate(
    ctx: Context,
    fast: Tuple[str, Dict[str, Any]],
    reference: Tuple[str, Dict[str, Any]],
    **shared: Any,
) -> float:
    """Before timing: a fast engine reproduces its reference's digest.

    Both sides are ``(engine name, engine kwargs)``.  Returns the ratio
    gate, fast seconds over reference seconds.
    """
    fast_digest, fast_s = _gate_run(ctx, fast[0], **shared, **fast[1])
    ref_digest, ref_s = _gate_run(ctx, reference[0], **shared, **reference[1])
    _require(
        fast_digest == ref_digest,
        f"small-N differential: {fast} digest {fast_digest[:12]} differs "
        f"from {reference} digest {ref_digest[:12]}",
    )
    return fast_s / ref_s


# -- workloads ---------------------------------------------------------------


class Workload:
    """One named workload (see the module docstring for the four steps)."""

    name = ""
    setup_layer: Optional[str] = "workloads.prepare_run_s"
    """The per-layer metric the set-up call reports under."""

    def gate(self, ctx: Context) -> Dict[str, float]:
        """Differential check before timing; returns its ratio gates."""
        return {}

    def setup(self, ctx: Context) -> Any:
        raise NotImplementedError

    def run(self, ctx: Context, state: Any) -> Measured:
        raise NotImplementedError

    def teardown(self, ctx: Context, state: Any) -> None:
        pass

    def verify(self, ctx: Context, state: Any, measured: Measured) -> str:
        """Check the outputs; return the digest part of the fingerprint."""
        raise NotImplementedError

    def extras(self, ctx: Context, metrics: Dict[str, float]) -> Dict[str, float]:
        """Traced run only: the extra runs behind the per-layer
        differences, given the traced pass's end-to-end ``metrics``."""
        return {}


def _exchange_counters(engine) -> Dict[str, int]:
    return {
        "completed": engine.completed_exchanges,
        "failed": engine.failed_exchanges,
    }


def _verify_static(ctx: Context, measured: Measured, cycles: int, views) -> None:
    """A static overlay completes N x cycles exchanges and, checked once
    per run, is one connected component."""
    _require(
        measured.counters["completed"] == ctx.sizes.large_nodes * cycles
        and measured.failed == 0,
        f"static overlay must complete N x cycles exchanges, got "
        f"{measured.counters}",
    )
    if ctx.first_pass:
        _require(
            is_one_component(views()),
            "static overlay is not one connected component",
        )


class FastStatic(Workload):
    """C/flat-array kernel does the cycles, object materialisation the
    digest; scheduler, shards, wire and graph metrics idle."""

    name = "fast_static_100k"

    def gate(self, ctx):
        return {
            "simulation.fast_over_cycle_ratio": differential_gate(
                ctx, ("fast", {}), ("cycle", {})
            )
        }

    def setup(self, ctx):
        sizes = ctx.sizes
        return types.SimpleNamespace(
            runtime=_prepare(
                "fast", sizes.large_nodes, sizes.fast_cycles, ctx.seed
            )
        )

    def run(self, ctx, state):
        tracer = ctx.tracer
        engine = state.runtime.engine
        times = _timed_cycles(
            ctx,
            state.runtime,
            ctx.sizes.fast_cycles,
            "simulation.fast.run_to_cycle",
        )
        with tracer.span("digest") as digest_span:
            with tracer.span("simulation.views") as views_span:
                state.views = engine.views()
            with tracer.span("workloads.views_digest") as hash_span:
                state.digest = views_digest(state.views)
        counters = _exchange_counters(engine)
        busy = sum(times)
        layers = _cycle_layers("simulation.fast", times)
        layers.update(
            {
                "simulation.fast.first_cycle_s": times[0],
                "simulation.fast.ns_per_exchange": (
                    busy / counters["completed"] * 1e9
                ),
                "simulation.views_s": views_span.seconds,
                "simulation.views_us_per_node": (
                    views_span.seconds / len(state.views) * 1e6
                ),
                "workloads.views_digest_s": hash_span.seconds,
            }
        )
        return Measured(
            metrics={
                "cycle_s": statistics.median(times),
                "exchanges_per_s": counters["completed"] / busy,
                "digest_s": digest_span.seconds,
            },
            samples={"cycle_s": times},
            attempted=counters["completed"] + counters["failed"],
            failed=counters["failed"],
            counters=counters,
            layers=layers,
        )

    def verify(self, ctx, state, measured):
        _verify_static(
            ctx, measured, ctx.sizes.fast_cycles, lambda: state.views
        )
        return state.digest + sample_digest(
            state.runtime.engine, ctx.sizes.large_nodes, ctx.sizes.sample_nodes
        )

    def extras(self, ctx, metrics):
        """The bootstrap alone, on a fresh engine (``prepare_run`` holds
        it inside one call)."""
        sizes = ctx.sizes
        engine = make_engine(
            _config(),
            seed=ctx.seed,
            engine="fast",
            scale=_scale(sizes.large_nodes, sizes.fast_cycles),
        )
        with ctx.tracer.span("simulation.bootstrap") as bootstrap:
            random_bootstrap(engine, sizes.large_nodes)
        return {"simulation.bootstrap_s": bootstrap.seconds}


class EventChurn(Workload):
    """Same kernel behind the int-tick heap, with loss, dead peers and
    free-list recycling: a kernel gain that costs the asynchronous or
    churn path shows here."""

    name = "event_churn_100k"
    latency = 0.1
    loss = 0.01

    def gate(self, ctx):
        return {
            "simulation.fast_event_over_event_ratio": differential_gate(
                ctx,
                ("fast-event", {}),
                ("event", {}),
                latency=self.latency,
                loss=self.loss,
                events=(
                    ContinuousChurn(joins_per_cycle=2, leaves_per_cycle=2),
                ),
            )
        }

    def _prepare(self, ctx, churn: int):
        sizes = ctx.sizes
        events = (
            (ContinuousChurn(joins_per_cycle=churn, leaves_per_cycle=churn),)
            if churn
            else ()
        )
        return _prepare(
            "fast-event",
            sizes.large_nodes,
            sizes.event_cycles,
            ctx.seed,
            events=events,
            latency=self.latency,
            loss=self.loss,
        )

    def setup(self, ctx):
        return types.SimpleNamespace(
            runtime=self._prepare(ctx, ctx.sizes.churn_per_cycle)
        )

    def run(self, ctx, state):
        engine = state.runtime.engine
        times = _timed_cycles(
            ctx,
            state.runtime,
            ctx.sizes.event_cycles,
            "simulation.fast_event.run_to_cycle",
        )
        busy = sum(times)
        counters = _exchange_counters(engine)
        counters.update(
            messages_sent=engine.messages_sent,
            messages_lost=engine.messages_lost,
            nodes=len(engine),
        )
        layers = _cycle_layers("simulation.fast_event", times)
        layers["simulation.fast_event.ns_per_message"] = (
            busy / engine.messages_sent * 1e9
        )
        return Measured(
            metrics={
                "cycle_s": statistics.median(times),
                "exchanges_per_s": counters["completed"] / busy,
            },
            samples={"cycle_s": times},
            # Every message is an attempted operation: it fails by loss
            # or by reaching a peer that churn already removed.
            attempted=counters["messages_sent"],
            failed=counters["messages_lost"] + counters["failed"],
            counters=counters,
            layers=layers,
        )

    def verify(self, ctx, state, measured):
        counters = measured.counters
        _require(
            0
            < counters["completed"] + measured.failed
            <= counters["messages_sent"],
            f"event counters are inconsistent: {counters}",
        )
        _require(
            counters["nodes"] == ctx.sizes.large_nodes,
            f"equal joins and leaves must keep N, got {counters['nodes']}",
        )
        return sample_digest(
            state.runtime.engine, ctx.sizes.large_nodes, ctx.sizes.sample_nodes
        )

    def extras(self, ctx, metrics):
        """The same seed without the churn event (a difference)."""
        times = _timed_cycles(
            ctx,
            self._prepare(ctx, 0),
            ctx.sizes.event_cycles,
            "simulation.fast_event.static.run_to_cycle",
        )
        static = statistics.median(times)
        return {
            "simulation.fast_event.static_cycle_s": static,
            "simulation.fast_event.churn_us_per_event": (
                (metrics["cycle_s"] - static)
                / (2 * ctx.sizes.churn_per_cycle)
                * 1e6
            ),
        }


class ShardedStatic(Workload):
    """Same kernel behind shared-memory boxes and round barriers: the
    only workload with worker spawn, cross-shard traffic, barrier wait
    and the superlinear first cycle."""

    name = "sharded_static_100k"

    def gate(self, ctx):
        differential_gate(
            ctx,
            ("fast-sharded", {"shards": ctx.sizes.shards}),
            ("fast-sharded", {"shards": 1}),
        )
        return {}

    def _prepare(self, ctx, shards: int):
        sizes = ctx.sizes
        return _prepare(
            "fast-sharded",
            sizes.large_nodes,
            sizes.sharded_cycles,
            ctx.seed,
            shards=shards,
        )

    def setup(self, ctx):
        return types.SimpleNamespace(
            runtime=self._prepare(ctx, ctx.sizes.shards), close_s=0.0
        )

    def run(self, ctx, state):
        times = _timed_cycles(
            ctx,
            state.runtime,
            ctx.sizes.sharded_cycles,
            "simulation.sharded.run_to_cycle",
        )
        counters = _exchange_counters(state.runtime.engine)
        return Measured(
            metrics={
                "cycle_s": statistics.median(times),
                "exchanges_per_s": counters["completed"] / sum(times),
            },
            samples={"cycle_s": times},
            attempted=counters["completed"] + counters["failed"],
            failed=counters["failed"],
            counters=counters,
            layers={
                "simulation.sharded.first_cycle_s": times[0],
                "simulation.sharded.cycle_s": statistics.median(times),
            },
        )

    def teardown(self, ctx, state):
        with ctx.tracer.span("simulation.sharded.close") as close:
            state.runtime.engine.close()
        state.close_s = close.seconds

    def verify(self, ctx, state, measured):
        measured.layers["simulation.sharded.close_s"] = state.close_s
        # close() keeps the view storage mapped, so views() still works.
        _verify_static(
            ctx, measured, ctx.sizes.sharded_cycles, state.runtime.engine.views
        )
        return sample_digest(
            state.runtime.engine, ctx.sizes.large_nodes, ctx.sizes.sample_nodes
        )

    def extras(self, ctx, metrics):
        """The same rounds on one shard, in-process (a difference)."""
        runtime = self._prepare(ctx, 1)
        try:
            times = _timed_cycles(
                ctx,
                runtime,
                ctx.sizes.sharded_cycles,
                "simulation.sharded.k1.run_to_cycle",
            )
        finally:
            runtime.engine.close()
        k1 = statistics.median(times)
        return {
            "simulation.sharded.k1_cycle_s": k1,
            "simulation.sharded.speedup_k2": k1 / metrics["cycle_s"],
        }


CELL_MEASUREMENTS = ("metrics", "dead-links", "degrees", "components")
CELL_FAILURE_FRACTION = 0.5


class PlanCell(Workload):
    """One paper-scale run_plan cell (Figure 2/3/7 + Table 1 shape):
    views() -> from_views -> clustering/path length dominates and the
    kernel is the minority, the reverse of fast_static_100k."""

    name = "plan_cell_10k"
    setup_layer = None

    def gate(self, ctx):
        differential_gate(ctx, ("fast", {}), ("cycle", {}))
        return {}

    def _events(self, ctx):
        return (
            CatastrophicFailure(
                at_cycle=ctx.sizes.cell_failure_at,
                fraction=CELL_FAILURE_FRACTION,
            ),
        )

    def _plan(self, ctx, measurements: Sequence[str]) -> ExperimentPlan:
        sizes = ctx.sizes
        return ExperimentPlan(
            name="perf-cell",
            scenario=ScenarioSpec(
                name="perf-cell",
                bootstrap="random",
                cycles=sizes.cell_cycles,
                events=self._events(ctx),
            ),
            protocols=(PROTOCOL,),
            scales=(
                _scale(
                    sizes.cell_nodes,
                    sizes.cell_cycles,
                    sizes.cell_metrics_every,
                ),
            ),
            engines=("fast",),
            seeds=(ctx.seed,),
            measurements=tuple(measurements),
        )

    def setup(self, ctx):
        return types.SimpleNamespace(plan=self._plan(ctx, CELL_MEASUREMENTS))

    def run(self, ctx, state):
        with ctx.tracer.span("workloads.run_plan") as cell:
            state.result = run_plan(state.plan, workers=1)
        record = state.result.records[0]
        return Measured(
            metrics={"cell_s": cell.seconds},
            samples={},
            attempted=record.completed_exchanges + record.failed_exchanges,
            failed=record.failed_exchanges,
            counters={
                "completed": record.completed_exchanges,
                "failed": record.failed_exchanges,
                "final_nodes": record.final_nodes,
            },
        )

    def verify(self, ctx, state, measured):
        sizes = ctx.sizes
        survivors = sizes.cell_nodes - int(
            round(sizes.cell_nodes * CELL_FAILURE_FRACTION)
        )
        expected = (
            sizes.cell_nodes * sizes.cell_failure_at
            + survivors * (sizes.cell_cycles - sizes.cell_failure_at)
        )
        _require(
            measured.attempted == expected
            and measured.counters["final_nodes"] == survivors,
            f"cell must attempt {expected} exchanges and keep {survivors} "
            f"nodes, got {measured.counters}",
        )
        recorded = state.result.records[0].measurements
        _require(
            set(recorded) == set(CELL_MEASUREMENTS)
            and len(recorded["metrics"]["cycles"])
            == sizes.cell_cycles // sizes.cell_metrics_every,
            "cell did not record the requested measurements",
        )
        return state.result.records_digest()

    def extras(self, ctx, metrics):
        """Bare and single-measurement cells (differences), then the
        measurement path's calls one by one on a finished overlay of the
        cell's size and schedule."""
        sizes, tracer = ctx.sizes, ctx.tracer

        def cell(measurements, span):
            plan = self._plan(ctx, measurements)
            with tracer.span(span) as timed:
                run_plan(plan, workers=1)
            return timed.seconds

        bare = cell((), "workloads.bare_cell")
        layers = {
            "workloads.bare_cell_s": bare,
            "workloads.measure_share": (
                (metrics["cell_s"] - bare) / metrics["cell_s"]
            ),
        }
        for name in CELL_MEASUREMENTS:
            layers[f"workloads.measure.{name}_s"] = (
                cell((name,), f"workloads.cell.{name}") - bare
            )
        runtime = _prepare(
            "fast",
            sizes.cell_nodes,
            sizes.cell_cycles,
            ctx.seed,
            events=self._events(ctx),
        )
        runtime.run_to_end()
        engine = runtime.engine
        rng = random.Random(ctx.seed)
        with tracer.span("simulation.views") as views_span:
            views = engine.views()
        with tracer.span("workloads.views_digest") as hash_span:
            views_digest(views)
        with tracer.span("simulation.dead_link_count") as dead_span:
            engine.dead_link_count()
        with tracer.span("graph.from_views") as snapshot_span:
            snapshot = GraphSnapshot.from_views(views)
        with tracer.span("graph.clustering") as clustering_span:
            clustering_coefficient(snapshot, sample=1000, rng=rng)
        with tracer.span("graph.path_length") as path_span:
            average_path_length(snapshot, n_sources=50, rng=rng)
        with tracer.span("graph.average_degree") as degree_span:
            average_degree(snapshot)
        with tracer.span("graph.components") as components_span:
            component_sizes(snapshot)
        descriptors = sum(len(entries) for entries in views.values())
        layers.update(
            {
                "simulation.views_s": views_span.seconds,
                "simulation.views_us_per_node": (
                    views_span.seconds / len(views) * 1e6
                ),
                "workloads.views_digest_s": hash_span.seconds,
                "simulation.dead_link_count_s": dead_span.seconds,
                "graph.from_views_s": snapshot_span.seconds,
                "graph.from_views_us_per_edge": (
                    snapshot_span.seconds / descriptors * 1e6
                ),
                "graph.clustering_s": clustering_span.seconds,
                "graph.path_length_s": path_span.seconds,
                "graph.average_degree_s": degree_span.seconds,
                "graph.components_s": components_span.seconds,
                # Computed from the cell's shape, not counted inside the
                # program: one snapshot per recorded metrics cycle, one
                # each for degrees and components.
                "graph.snapshots_per_cell": float(
                    sizes.cell_cycles // sizes.cell_metrics_every + 2
                ),
            }
        )
        return layers


class _LoopThread:
    """The asyncio thread of the live workload."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perf-asyncio", daemon=True
        )
        self.thread.start()

    def call(self, coroutine, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(
            timeout
        )

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        if not self.thread.is_alive():
            self.loop.close()


LIVE_AUTH_KEY = b"perf-ledger-key"
LIVE_REQUEST_TIMEOUT = 5.0
"""Ten times the program's default: a half-second stall of the shared
host then delays a round instead of failing all 64 exchanges in flight,
so only a datagram the kernel drops fails an exchange."""


class LiveUdp(Workload):
    """Codec, UDP transport, daemon correlation and the service lock do
    all the work, the simulators none; getPeer() reads run beside view
    merges on one lock, so a gain that starves the other shows."""

    name = "live_udp_64"
    setup_layer = "net.cluster.start_s"

    def _cluster(self, ctx, seed_offset=0, transport="udp", auth_key=None):
        return LocalCluster(
            _config(),
            ctx.sizes.live_daemons,
            network=NetworkConfig(
                cycle_seconds=ctx.sizes.live_cycle_seconds,
                request_timeout=LIVE_REQUEST_TIMEOUT,
                wire_version=2,
                auth_key=auth_key,
            ),
            transport=transport,
            seed=ctx.seed + seed_offset,
        )

    def setup(self, ctx, transport="udp", auth_key=None):
        state = types.SimpleNamespace(
            thread=_LoopThread(),
            cluster=self._cluster(ctx, transport=transport, auth_key=auth_key),
        )
        try:
            with ctx.tracer.span("net.cluster.start"):
                state.thread.call(state.cluster.start())
        except BaseException:
            self.teardown(ctx, state)
            raise
        return state

    def teardown(self, ctx, state):
        try:
            if state.cluster is not None:
                self._stop(ctx, state)
        finally:
            state.thread.close()

    def _stop(self, ctx, state) -> float:
        cluster, state.cluster = state.cluster, None
        with ctx.tracer.span("net.cluster.stop") as stop:
            state.thread.call(cluster.stop())
        return stop.seconds

    async def _lockstep(self, ctx, cluster, rounds: int, trips: range):
        """A slice of phase A, on the asyncio thread: ``rounds`` lockstep
        rounds, then the sequential round trips numbered ``trips``."""
        tracer = ctx.tracer
        round_times = []
        for _ in range(rounds):
            with tracer.span("net.cluster.run_cycles") as one:
                await cluster.run_cycles(1)
            round_times.append(one.seconds)
        daemons = list(cluster.daemons.values())
        trip_times = []
        for index in trips:
            daemon = daemons[index % len(daemons)]
            with tracer.span("net.daemon.run_cycle") as one:
                await daemon.run_cycle()
            trip_times.append(one.seconds)
        return round_times, trip_times

    def _draw(self, ctx, state, index: int, seconds: float, timed: int):
        """A slice of phase B: this (the application) thread draws while
        a fresh free-running cluster gossips on the asyncio thread --
        untimed while the cluster warms up, then for ``seconds`` back to
        back, window by window (the rate), then ``timed`` times with a
        clock read either side (the latency percentiles)."""
        sizes = ctx.sizes
        cluster = self._cluster(ctx, seed_offset=1 + index)
        try:
            state.thread.call(cluster.start(free_running=True))
            service = next(iter(cluster.daemons.values())).service
            get_peer = service.get_peer
            clock = time.perf_counter
            batch = range(1000)
            warm = drawn = 0
            deadline = clock() + sizes.live_warm_seconds
            while clock() < deadline:
                for _ in batch:
                    get_peer()
                warm += len(batch)
            before = cluster.stats_total()["exchanges_completed"]
            rates = []
            with ctx.tracer.span("core.service.get_peer.rate") as window:
                windows = max(1, round(seconds / sizes.live_window_seconds))
                for _ in range(windows):
                    count = 0
                    start = clock()
                    deadline = start + sizes.live_window_seconds
                    while clock() < deadline:
                        for _ in batch:
                            get_peer()
                        count += len(batch)
                    rates.append(count / (clock() - start))
                    drawn += count
            gossiped = cluster.stats_total()["exchanges_completed"] - before
            latencies = [0.0] * timed
            with ctx.tracer.span("core.service.get_peer.latency"):
                for draw in range(timed):
                    start = clock()
                    get_peer()
                    latencies[draw] = clock() - start
            stats = cluster.stats_total()
        finally:
            state.thread.call(cluster.stop())
        return types.SimpleNamespace(
            latencies=latencies,
            # A draw from an empty view returns None and is not served.
            empty=warm + drawn + timed - service.samples_served,
            rates=rates,
            window_s=window.seconds,
            gossiped=gossiped,
            stats=stats,
        )

    def run(self, ctx, state):
        sizes = ctx.sizes
        slices = sizes.live_slices
        rounds, trips, draws = [], [], []
        for index in range(slices):
            slice_rounds, slice_trips = state.thread.call(
                self._lockstep(
                    ctx,
                    state.cluster,
                    _share(sizes.live_rounds, slices, index),
                    range(
                        sizes.live_round_trips * index // slices,
                        sizes.live_round_trips * (index + 1) // slices,
                    ),
                )
            )
            rounds += slice_rounds
            trips += slice_trips
            draws.append(
                self._draw(
                    ctx,
                    state,
                    index,
                    sizes.live_draw_seconds / slices,
                    _share(sizes.live_draws, slices, index),
                )
            )
        lockstep = state.cluster.stats_total()
        stop_s = self._stop(ctx, state)
        latencies = [t for draw in draws for t in draw.latencies]
        ordered = sorted(latencies)
        window_s = sum(draw.window_s for draw in draws)

        def stat(field: str) -> int:
            return lockstep[field] + sum(draw.stats[field] for draw in draws)

        layers = {
            "net.cluster.stop_s": stop_s,
            "net.daemon.rtt_p99_us": percentile(sorted(trips), 99) * 1e6,
            # Exchanges completed while drawing back to back, over what
            # the timers would have started in those windows: the writes
            # that reads may starve.
            "net.daemon.gossip_share_under_draw": sum(
                draw.gossiped for draw in draws
            )
            / (sizes.live_daemons / sizes.live_cycle_seconds * window_s),
            "net.daemon.timeouts": float(stat("timeouts")),
            "net.daemon.late_replies": float(stat("late_replies")),
            "net.daemon.invalid_messages": float(stat("invalid_messages")),
            "core.service.get_peer_p50_ns": percentile(ordered, 50) * 1e9,
            "core.service.get_peer_p99_ns": percentile(ordered, 99) * 1e9,
            "core.service.get_peer_p999_ns": percentile(ordered, 99.9) * 1e9,
        }
        state.lockstep = lockstep
        return Measured(
            metrics={
                "cycle_s": statistics.median(rounds),
                "exchanges_per_s": (
                    sizes.live_rounds * sizes.live_daemons / sum(rounds)
                ),
                "rtt_p50_us": statistics.median(trips) * 1e6,
                "getpeer_per_s": statistics.median(
                    rate for draw in draws for rate in draw.rates
                ),
            },
            samples={
                "cycle_s": rounds,
                "rtt_s": trips,
                "get_peer_s": latencies,
            },
            # The warm-up and the back-to-back windows are a rate, not a
            # count of checked operations: the attempts are the
            # exchanges and the timed draws, whose number does not
            # follow the box's speed.
            attempted=stat("exchanges_initiated") + sizes.live_draws,
            failed=(
                stat("timeouts")
                + stat("invalid_messages")
                + sum(draw.empty for draw in draws)
            ),
            # Free-running gossip over real sockets does not repeat, so
            # only the lockstep phase's initiation count is exact.
            counters={"lockstep_initiated": lockstep["exchanges_initiated"]},
            layers=layers,
        )

    def verify(self, ctx, state, measured):
        sizes, lockstep = ctx.sizes, state.lockstep
        expected = (
            sizes.live_rounds * sizes.live_daemons + sizes.live_round_trips
        )
        _require(
            lockstep["exchanges_initiated"] == expected
            and lockstep["exchanges_completed"] + lockstep["timeouts"]
            == expected,
            f"lockstep phase must initiate {expected} exchanges and "
            f"complete or time out each, got {lockstep}",
        )
        _require(
            measured.failed * 100 <= measured.attempted,
            f"more than 1% of live operations failed "
            f"({measured.failed}/{measured.attempted})",
        )
        return ""

    def _rtt_p50_us(self, ctx, transport, auth_key) -> float:
        """Phase A on another cluster flavour: its median round trip."""
        sizes = ctx.sizes
        state = self.setup(ctx, transport=transport, auth_key=auth_key)
        try:
            _, trips = state.thread.call(
                self._lockstep(
                    ctx,
                    state.cluster,
                    sizes.live_rounds,
                    range(sizes.live_round_trips),
                )
            )
        finally:
            self.teardown(ctx, state)
        return statistics.median(trips) * 1e6

    def extras(self, ctx, metrics):
        """Loopback and signed clusters (differences), then the codec
        and protocol micro-loops."""
        loopback = self._rtt_p50_us(ctx, "loopback", None)
        layers = {
            "net.transport.loopback_rtt_p50_us": loopback,
            "net.transport.udp_cost_us": metrics["rtt_p50_us"] - loopback,
            "net.daemon.signed_rtt_p50_us": self._rtt_p50_us(
                ctx, "udp", LIVE_AUTH_KEY
            ),
        }
        layers.update(_codec_loops(ctx.sizes.micro_loops))
        layers.update(_protocol_loops(ctx))
        return layers


def _per_call_us(function: Callable[[], Any], loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        function()
    return (time.perf_counter() - start) / loops * 1e6


def _codec_loops(loops: int) -> Dict[str, float]:
    """Codec cost of one full message: 31 descriptors (a c=30 view plus
    the sender's own), wire v2, UDP-style addresses."""
    message = [
        NodeDescriptor(f"127.0.0.1:{40000 + index}", index % 7)
        for index in range(VIEW_SIZE + 1)
    ]
    frame = encode_message(message, version=2)
    signed = encode_signed_message(message, LIVE_AUTH_KEY, version=2)
    encode = _per_call_us(lambda: encode_message(message, version=2), loops)
    decode = _per_call_us(lambda: decode_frame(frame), loops)
    sign = _per_call_us(
        lambda: encode_signed_message(message, LIVE_AUTH_KEY, version=2), loops
    )
    verify = _per_call_us(
        lambda: decode_signed_frame(signed, LIVE_AUTH_KEY), loops
    )
    return {
        "core.codec.encode_us": encode,
        "core.codec.decode_us": decode,
        "core.codec.frame_bytes": float(len(frame)),
        # Differences: the signed call minus the plain one.
        "core.codec.sign_us": sign - encode,
        "core.codec.verify_us": verify - decode,
    }


def _protocol_loops(ctx: Context) -> Dict[str, float]:
    """The three Figure-1 steps on converged ``GossipNode`` objects, and
    an uncontended ``get_peer`` -- no daemon, no wire, one thread."""
    sizes = ctx.sizes
    runtime = _prepare("cycle", sizes.live_daemons, 30, ctx.seed)
    runtime.run_to_end()
    engine = runtime.engine
    nodes = engine.nodes()
    clock = time.perf_counter
    begin = request = response = 0.0
    for index in range(sizes.micro_loops):
        node = nodes[index % len(nodes)]
        t0 = clock()
        exchange = node.begin_exchange()
        t1 = clock()
        peer = engine.node(exchange.peer)
        t2 = clock()
        reply = peer.handle_request(node.address, exchange.payload)
        t3 = clock()
        node.handle_response(peer.address, reply)
        t4 = clock()
        begin += t1 - t0
        request += t3 - t2
        response += t4 - t3
    get_peer = PeerSamplingService(nodes[0]).get_peer
    draws = sizes.micro_loops * 10
    start = clock()
    for _ in range(draws):
        get_peer()
    get_peer_s = clock() - start
    per_call_us = 1e6 / sizes.micro_loops
    return {
        "core.protocol.begin_exchange_us": begin * per_call_us,
        "core.protocol.handle_request_us": request * per_call_us,
        "core.protocol.handle_response_us": response * per_call_us,
        "core.service.get_peer_ns": get_peer_s / draws * 1e9,
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        FastStatic(),
        EventChurn(),
        ShardedStatic(),
        PlanCell(),
        LiveUdp(),
    )
}


# -- one pass ----------------------------------------------------------------


def run_pass(workload: Workload, ctx: Context) -> PassResult:
    """Rehearse the set-up, time one pass, tear down, then check.

    ``setup_s`` is the median of the set-ups here; the caller adds what
    loading the program costs.  Raises :class:`CheckFailed` when an
    output is wrong or the pass leaked a segment, process or socket.
    """
    tracer = ctx.tracer
    hygiene = Hygiene()
    setup_samples = []
    for _ in range(SETUP_REPEATS - 1):
        with tracer.span("rehearsal"):
            with tracer.span("setup") as setup:
                state = workload.setup(ctx)
            workload.teardown(ctx, state)
        setup_samples.append(setup.seconds)
        del state
    gc.collect()
    with tracer.span("pass") as wall:
        with tracer.span("setup") as setup:
            state = workload.setup(ctx)
        try:
            measured = workload.run(ctx, state)
        finally:
            with tracer.span("teardown"):
                workload.teardown(ctx, state)
    rss = peak_rss_mb()  # before the checks allocate views of their own
    setup_samples.append(setup.seconds)
    digest = workload.verify(ctx, state, measured)
    del state
    gc.collect()  # the sharded engine's view segments go with the engine
    problems = hygiene.leaks()
    _require(not problems, "; ".join(problems))
    metrics = dict(measured.metrics)
    metrics.update(
        {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall.seconds,
            # Add-one, so the share is never 0 and a relative bound has
            # a base: one failure on a clean workload doubles it.
            "failed_share": (measured.failed + 1) / (measured.attempted + 1),
        }
    )
    if ctx.first_pass:
        metrics["peak_rss_mb"] = rss
    layers = dict(measured.layers)
    # A pass that gets here gained no /dev/shm entry.
    layers["simulation.sharded.leaked_segments"] = 0.0
    if workload.setup_layer:
        layers[workload.setup_layer] = statistics.median(setup_samples)
    samples = dict(measured.samples, setup_s=setup_samples)
    return PassResult(
        metrics=metrics,
        summaries={name: summarize(values) for name, values in samples.items()},
        attempted=measured.attempted,
        failed=measured.failed,
        fingerprint=_fingerprint(measured.counters, digest),
        counters=measured.counters,
        layers=layers,
    )
