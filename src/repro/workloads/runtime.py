"""Compile a :class:`~repro.workloads.spec.ScenarioSpec` onto any engine.

:func:`prepare_run` builds an engine through the registry
(:func:`repro.experiments.common.make_engine`) and binds a spec to it;
:func:`compile_scenario` binds a spec to an engine the caller already
built (how extension protocols -- Cyclon, combined overlays -- ride the
declarative API).  Binding means:

- the bootstrap kind runs immediately (reusing the fast engines' bulk
  bootstrap path, so cycle-family byte-identity is preserved);
- integer-cycle events (``grow``, ``catastrophic-failure``,
  ``continuous-churn``, ``partition``/``heal``) become the proven
  observers of :mod:`repro.simulation.scenarios` /
  :mod:`repro.simulation.churn`, registered in declaration order;
- ``churn-trace`` events are expanded into a deterministic timeline of
  joins and leaves: on the cycle-driven engines an observer applies each
  batch at the start of its enclosing cycle, on the event-driven engines
  the returned :class:`ScenarioRuntime` slices ``run_time`` so every join
  and leave executes at its *exact* sub-cycle simulated time.

The runtime's :meth:`ScenarioRuntime.run_to_cycle` /
:meth:`~ScenarioRuntime.run_to_end` are the only driving entry points the
experiment harness needs; measurements attach through
:meth:`~ScenarioRuntime.add_observer` exactly like on a bare engine.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.descriptor import Address
from repro.core.errors import ConfigurationError
from repro.simulation import churn as churn_mod
from repro.simulation.arrayviews import FlatArrayEngine
from repro.simulation.base import BaseEngine, require, rows_of_views
from repro.simulation.scenarios import (
    GrowingScenario,
    lattice_bootstrap,
    random_bootstrap,
)
from repro.simulation.trace import Observer
from repro.workloads.spec import (
    CatastrophicFailure,
    ChurnTrace,
    ContinuousChurn,
    Grow,
    Heal,
    Partition,
    ScenarioSpec,
)

__all__ = [
    "ScenarioRuntime",
    "compile_scenario",
    "prepare_run",
    "views_digest",
    "generate_trace",
    "warm_shared_caches",
    "TraceEvent",
]

_JOIN = 0
_LEAVE = 1


class TraceEvent(NamedTuple):
    """One resolved churn-trace action: a join or a leave of one session."""

    time: float
    """Absolute simulated time, in gossip periods."""
    action: int
    """``0`` = join, ``1`` = leave."""
    key: "tuple"
    """Session identity: ``(trace_index, arrival_index)``."""


def generate_trace(
    event: ChurnTrace, total_cycles: int, trace_index: int = 0
) -> List[TraceEvent]:
    """Expand one ``churn-trace`` event into its deterministic timeline.

    Arrivals form a Poisson process of ``event.rate`` per period on
    ``[start_cycle, end_cycle)``; each arrival's session length is an
    independent ``Exponential(session_length)`` draw.  All times come
    from a dedicated ``random.Random(event.trace_seed)``, never from the
    engine RNG -- the same spec therefore replays the identical trace on
    every engine and for every run seed, like a recorded availability
    trace.
    """
    if event.rate <= 0:
        return []
    rng = random.Random(event.trace_seed)
    end = float(
        total_cycles if event.end_cycle is None else event.end_cycle
    )
    end = min(end, float(total_cycles))
    events: List[TraceEvent] = []
    t = float(event.start_cycle)
    k = 0
    while True:
        t += rng.expovariate(event.rate)
        if t >= end:
            break
        session = rng.expovariate(1.0 / event.session_length)
        key = (trace_index, k)
        events.append(TraceEvent(t, _JOIN, key))
        leave = t + session
        if leave < total_cycles:
            events.append(TraceEvent(leave, _LEAVE, key))
        k += 1
    events.sort(key=lambda e: (e.time, e.key[1], e.action))
    return events


def warm_shared_caches(engine_names: Sequence[Optional[str]]) -> None:
    """Populate on-disk caches the given engines share, once, up front.

    Called by the parallel plan executor in the *parent* process before
    any worker spawns: the flat-array engines compile the shared C core
    into ``~/.cache/repro-fastcore`` at first use, and while concurrent
    builds are safe (the writer renames atomically), N cold workers
    would otherwise each pay the full compile.  Warming here means every
    worker finds the finished library on disk and just ``dlopen``\\ s it.
    A no-op when no accelerated engine is requested or ``REPRO_NO_ACCEL``
    disables the core.
    """
    from repro.experiments.common import ENGINES

    if any(
        issubclass(ENGINES[name], FlatArrayEngine)
        for name in engine_names
        if name is not None
    ):
        from repro.simulation._fastcore import load_accelerator

        load_accelerator()


def views_digest(source: Any) -> str:
    """A canonical SHA-256 digest of an overlay's complete view state.

    ``source`` is an engine or a ``views()`` mapping.  The digest covers
    node insertion order, every descriptor's address and hop count, and
    entry order within each view -- two runs are byte-identical if and
    only if their digests match.  This is what the cross-engine
    spec-execution tests pin.  An engine is hashed from its
    ``view_rows()`` (no descriptor objects on the flat-array engines),
    one ``%``-format per row either way.
    """
    rows = (
        rows_of_views(source)
        if isinstance(source, Mapping)
        else source.view_rows()
    )
    formats: Dict[int, str] = {}
    h = hashlib.sha256()
    for address, peers, hops in rows:
        n = len(peers)
        row_format = formats.get(n)
        if row_format is None:
            row_format = formats[n] = "%r:" + "%r,%s;" * n + "\n"
        fields = [address] * (2 * n + 1)
        fields[1::2] = peers
        fields[2::2] = hops
        h.update((row_format % tuple(fields)).encode())
    return h.hexdigest()


class FailureHandle(churn_mod.CatastrophicFailure):
    """The compiled ``catastrophic-failure`` observer.

    Extends the simulation primitive with ``dead_links_after`` -- the
    dead-link count captured immediately after the crash, before any
    healing exchange -- which is the ``initial`` value the Figure 7
    artefact reports.
    """

    def __init__(self, at_cycle: int, fraction: float) -> None:
        super().__init__(at_cycle, fraction)
        self.dead_links_after: Optional[int] = None

    def before_cycle(self, engine: BaseEngine) -> None:  # type: ignore[override]
        fired_before = self.fired
        super().before_cycle(engine)
        if self.fired and not fired_before:
            self.dead_links_after = engine.dead_link_count()


class _CycleTraceObserver(Observer):
    """Quantized churn-trace execution for the cycle-driven engines.

    Every trace event whose time falls inside the upcoming cycle is
    applied at that cycle's start -- the closest synchronous analogue of
    the event engines' exact sub-cycle execution.
    """

    def __init__(self, runtime: "ScenarioRuntime") -> None:
        self._runtime = runtime

    def before_cycle(self, engine: BaseEngine) -> None:  # type: ignore[override]
        runtime = self._runtime
        trace = runtime.trace
        horizon = engine.cycle + 1
        while (
            runtime._trace_pos < len(trace)
            and trace[runtime._trace_pos].time < horizon
        ):
            runtime._apply_trace_event(trace[runtime._trace_pos])
            runtime._trace_pos += 1


class ScenarioRuntime:
    """A spec bound to one engine: compiled observers plus the run driver.

    Attributes
    ----------
    engine:
        The bound engine (any registry engine, or a caller-built one).
    spec:
        The scenario being executed.
    cycles:
        Total run length in gossip cycles.
    n_nodes:
        The resolved population parameter (bootstrap size or grow target).
    bootstrap_addresses:
        Addresses created by the bootstrap, in creation order (empty for
        the ``empty`` bootstrap) -- what the degree-tracing measurements
        sample from.
    handles:
        The compiled observer for every integer-cycle event, in
        declaration order (e.g. the :class:`FailureHandle` for a
        ``catastrophic-failure`` event).
    trace:
        The merged, time-sorted churn-trace timeline (empty without
        ``churn-trace`` events).
    adversary:
        The :class:`~repro.adversary.harness.AdversaryHandle` of the
        spec's ``adversary`` block (resolved attacker/victim placement),
        or ``None`` -- what the attack measurements read.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        engine: BaseEngine,
        cycles: int,
        n_nodes: int,
    ) -> None:
        self.spec = spec
        self.engine = engine
        self.cycles = cycles
        self.n_nodes = n_nodes
        self.bootstrap_addresses: List[Address] = []
        self.handles: List[Observer] = []
        self.trace: List[TraceEvent] = []
        self._sessions: Dict[tuple, Address] = {}
        self._trace_pos = 0
        # The event family advances in sub-cycle time (run_time); that is
        # what makes exact-time trace execution possible.
        self._event_driven = engine.family == "event"
        # The runtime clock advances on the engines' integer tick grid so
        # the rounded per-slice durations telescope exactly: the final
        # slice always lands on the cycle boundary (and fires its
        # observers) instead of one float-rounding tick short of it.
        self._ticks_per_period = (
            getattr(engine, "ticks_per_period", None) or (1 << 40)
        )
        # run_time takes simulated-time units; trace times and cycle
        # targets are denominated in gossip *periods*, so durations are
        # scaled by the engine's period on the way in.
        self._period = float(getattr(engine, "period", 1.0))
        self._clock_ticks = 0
        self.adversary = None

    # -- observer plumbing -------------------------------------------------

    def add_observer(self, observer: Observer) -> None:
        """Register a measurement observer on the bound engine."""
        self.engine.add_observer(observer)

    def handle(self, event_cls: type) -> Any:
        """The first compiled handle that is an ``event_cls`` instance."""
        for candidate in self.handles:
            if isinstance(candidate, event_cls):
                return candidate
        raise ConfigurationError(
            f"scenario {self.spec.name!r} compiled no {event_cls.__name__}"
        )

    # -- churn-trace execution ---------------------------------------------

    def _apply_trace_event(self, event: TraceEvent) -> None:
        engine = self.engine
        if event.action == _JOIN:
            alive = engine.addresses()
            contacts: List[Address] = (
                [engine.rng.choice(alive)] if alive else []
            )
            self._sessions[event.key] = engine.add_node(contacts=contacts)
        else:
            address = self._sessions.pop(event.key, None)
            if (
                address is not None
                and engine.is_alive(address)
                and len(engine) > 1
            ):
                engine.remove_node(address)

    # -- driving -----------------------------------------------------------

    def run_to_cycle(self, cycle: int) -> None:
        """Advance the run to the end of gossip cycle ``cycle``.

        Idempotent for cycles already completed.  On the event-driven
        engines the advancement is sliced around the churn-trace
        timeline so every join/leave executes at its exact simulated
        time; the cycle-driven engines apply trace events through their
        per-cycle observer instead.
        """
        if self._event_driven:
            tpp = self._ticks_per_period
            target_ticks = cycle * tpp
            trace = self.trace
            while self._trace_pos < len(trace):
                event = trace[self._trace_pos]
                event_ticks = round(event.time * tpp)
                if event_ticks > target_ticks:
                    break
                self._trace_pos += 1
                if event_ticks > self._clock_ticks:
                    self.engine.run_time(  # type: ignore[attr-defined]
                        (event_ticks - self._clock_ticks)
                        / tpp
                        * self._period
                    )
                    self._clock_ticks = event_ticks
                self._apply_trace_event(event)
            if target_ticks > self._clock_ticks:
                self.engine.run_time(  # type: ignore[attr-defined]
                    (target_ticks - self._clock_ticks) / tpp * self._period
                )
                self._clock_ticks = target_ticks
        else:
            delta = cycle - self.engine.cycle
            if delta > 0:
                self.engine.run(delta)

    def run_to_end(self) -> BaseEngine:
        """Run the remaining schedule; returns the engine for chaining."""
        self.run_to_cycle(self.cycles)
        return self.engine

    def views_digest(self) -> str:
        """Canonical digest of the engine's current overlay state."""
        return views_digest(self.engine)


def _resolve_growth(event: Grow, n_nodes: int, scale) -> GrowingScenario:
    target = event.target if event.target is not None else n_nodes
    if event.per_cycle is not None:
        per_cycle = event.per_cycle
    elif scale is not None:
        # ceil division: the paper's proportions at any target size.
        per_cycle = max(1, -(-target // scale.growth_cycles))
    else:
        per_cycle = max(1, target // 100)
    return GrowingScenario(target, per_cycle)


def compile_scenario(
    spec: ScenarioSpec,
    engine: BaseEngine,
    *,
    scale=None,
    n_nodes: Optional[int] = None,
    cycles: Optional[int] = None,
) -> ScenarioRuntime:
    """Bind ``spec`` to a caller-built ``engine`` and bootstrap it.

    ``n_nodes`` / ``cycles`` override the spec and the ``scale`` preset
    (resolution order: explicit argument > spec field > scale preset).
    The engine must be freshly constructed (the bootstrap populates it).
    Use :func:`prepare_run` to also build the engine from the registry.
    """
    resolved_nodes = n_nodes
    if resolved_nodes is None and scale is not None:
        resolved_nodes = scale.n_nodes
    if resolved_nodes is None:
        raise ConfigurationError(
            "compile_scenario needs n_nodes (explicitly or via scale=)"
        )
    resolved_cycles = cycles
    if resolved_cycles is None:
        resolved_cycles = spec.cycles
    if resolved_cycles is None and scale is not None:
        resolved_cycles = scale.cycles
    if resolved_cycles is None:
        raise ConfigurationError(
            "compile_scenario needs cycles (explicitly, via the spec, or "
            "via scale=)"
        )
    for feature, setting, field in (
        ("latency", spec.latency, "latency"),
        ("loss", spec.loss, "loss"),
        ("adversary", spec.adversary, "adversary block"),
    ):
        if setting is not None:
            require(type(engine), feature, f"scenario {spec.name!r} {field}")
    if len(engine) != 0:
        raise ConfigurationError(
            "compile_scenario bootstraps the population itself; pass a "
            f"freshly built engine (this one holds {len(engine)} nodes)"
        )
    runtime = ScenarioRuntime(spec, engine, resolved_cycles, resolved_nodes)
    # Partition/heal events pair by *time*, like the spec validation
    # nests them -- declaration order is free-form, so a heal may be
    # declared before its partition.  Validation guarantees the sorted
    # timelines alternate split/heal with heal strictly later.
    partition_pairs = list(
        zip(
            sorted(spec.events_of(Partition), key=lambda e: e.at_cycle),
            sorted(spec.events_of(Heal), key=lambda e: e.at_cycle),
        )
    )
    # 1. bootstrap (the fast engines take their bulk path inside
    #    random_bootstrap, so cycle-family byte-identity is preserved).
    if spec.bootstrap == "random":
        runtime.bootstrap_addresses = random_bootstrap(
            engine, resolved_nodes, view_fill=spec.view_fill
        )
    elif spec.bootstrap == "lattice":
        runtime.bootstrap_addresses = lattice_bootstrap(
            engine, resolved_nodes, view_fill=spec.view_fill
        )
    # "empty": nothing -- the grow event populates the overlay.
    # 1b. adversary placement binds to the bootstrap population, before
    #     any event observer runs (spec validation guarantees a non-empty
    #     bootstrap whenever an adversary block is present).
    if spec.adversary is not None:
        from repro.adversary.harness import install_adversary

        runtime.adversary = install_adversary(runtime)
    # 2. integer-cycle events become observers: grow/failure/churn in
    #    declaration order, then the time-paired partitions.
    trace_index = 0
    for event in spec.events:
        if isinstance(event, Grow):
            handle: Observer = _resolve_growth(event, resolved_nodes, scale)
        elif isinstance(event, CatastrophicFailure):
            handle = FailureHandle(event.at_cycle, event.fraction)
        elif isinstance(event, ContinuousChurn):
            handle = churn_mod.ContinuousChurn(
                event.joins_per_cycle, event.leaves_per_cycle
            )
        elif isinstance(event, (Partition, Heal)):
            continue  # paired by time above, compiled below
        elif isinstance(event, ChurnTrace):
            runtime.trace.extend(
                generate_trace(event, resolved_cycles, trace_index)
            )
            trace_index += 1
            continue
        else:  # pragma: no cover - spec validation rejects unknown events
            raise ConfigurationError(f"uncompilable event {event!r}")
        engine.add_observer(handle)
        runtime.handles.append(handle)
    for split, heal in partition_pairs:
        handle = churn_mod.TemporaryPartition(
            split.at_cycle, heal.at_cycle, split.n_groups
        )
        engine.add_observer(handle)
        runtime.handles.append(handle)
    if trace_index > 1:
        runtime.trace.sort(key=lambda e: (e.time, e.key, e.action))
    # 3. cycle-driven engines apply the trace through a per-cycle
    #    observer; event-driven engines slice run_time in run_to_cycle.
    if runtime.trace and not runtime._event_driven:
        engine.add_observer(_CycleTraceObserver(runtime))
    return runtime


def prepare_run(
    spec: ScenarioSpec,
    config: ProtocolConfig,
    *,
    scale=None,
    seed: Optional[int] = None,
    engine: Optional[str] = None,
    rng: Optional[random.Random] = None,
    n_nodes: Optional[int] = None,
    cycles: Optional[int] = None,
    **engine_kwargs: Any,
) -> ScenarioRuntime:
    """Build the engine named by ``engine`` / ``$REPRO_ENGINE`` and bind
    ``spec`` to it.

    This is the one entry point every artefact module uses: the engine
    comes from the registry (honoring the scale preset's default engine,
    exactly like :func:`~repro.experiments.common.make_engine`), the
    spec's latency/loss settings are forwarded -- and eagerly rejected
    for cycle-family engines -- and the bootstrap plus schedule are
    compiled as in :func:`compile_scenario`.
    """
    from repro.experiments.common import current_scale, make_engine

    if scale is None:
        scale = current_scale()
    instance = make_engine(
        config,
        seed=seed,
        engine=engine,
        rng=rng,
        scale=scale,
        latency=spec.latency,
        loss=spec.loss,
        **engine_kwargs,
    )
    return compile_scenario(
        spec, instance, scale=scale, n_nodes=n_nodes, cycles=cycles
    )
