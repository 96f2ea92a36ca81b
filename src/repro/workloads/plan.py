"""Experiment plans: ``protocols x scenario x scales x engines x seeds``.

An :class:`ExperimentPlan` is the serializable cross-product description
of a whole study: which protocol instances (paper tuple labels, H/S
suffixes included), which scenario (inline
:class:`~repro.workloads.spec.ScenarioSpec` or a built-in name from
:mod:`repro.workloads.library`), at which scale presets, on which
engines, over which seeds -- plus the measurements to record per run.
:func:`run_plan` executes the cross-product through
:func:`~repro.workloads.runtime.prepare_run` and returns one
:class:`RunRecord` per cell, each carrying a canonical
:func:`~repro.workloads.runtime.views_digest` of the final overlay (what
the cross-engine identity tests compare) and the extracted measurement
series.

Execution is serial by default and process-parallel on request
(``run_plan(plan, workers=N)`` / ``$REPRO_WORKERS``; ``full``-scale
plans default to one worker per core): the cross-product is expanded
into spawn-safe, picklable :class:`PlanCell` descriptors, dispatched to
a ``ProcessPoolExecutor``, and merged back **in deterministic plan
order** regardless of completion order.  Serial and parallel execution
are byte-identical -- same records, same ordering, same SHA-256 overlay
digests (:meth:`PlanResult.records_digest`; only per-cell wall-clock
timings differ) -- because every cell re-derives its entire state (spec,
protocol, engine, RNG seed) from the descriptor through the exact code
path in-process execution uses (:func:`execute_cell`).  The conformance
suite ``tests/workloads/test_parallel.py`` pins this across both engine
families.

Like the specs, plans validate eagerly: unknown engines, scales,
measurements or unparsable protocol labels raise
:class:`~repro.core.errors.ConfigurationError` at construction (and
therefore at :meth:`ExperimentPlan.from_json` time), never mid-study;
an engine x feature combination the engine does not support raises at
expansion (:func:`plan_cells`), before any cell runs.
Failures *during* execution -- a cell raising, a worker process dying,
the ``timeout`` budget expiring -- cancel the remaining cells and raise
:class:`~repro.core.errors.PlanExecutionError` naming the cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError, PlanExecutionError
from repro.simulation.base import require
from repro.workloads.library import SCENARIOS, named_scenario
from repro.workloads.measure import MEASUREMENTS, measure
from repro.workloads.runtime import prepare_run, warm_shared_caches
from repro.workloads.spec import ScenarioSpec

__all__ = [
    "MEASUREMENTS",
    "ExperimentPlan",
    "PlanCell",
    "PlanExecutionError",
    "PlanResult",
    "RunRecord",
    "execute_cell",
    "plan_cells",
    "plan_scales",
    "run_plan",
    "run_plans",
]


# -- the plan ----------------------------------------------------------------


_PLAN_FIELDS = (
    "name",
    "scenario",
    "protocols",
    "scales",
    "engines",
    "seeds",
    "n_nodes",
    "cycles",
    "measurements",
    "description",
)


@dataclasses.dataclass(frozen=True)
class ExperimentPlan:
    """The serializable cross-product of one study (module docstring).

    ``engines`` entries may be ``None`` (JSON ``null`` or the string
    ``"default"``): the scale preset's default engine then applies, like
    an experiment invoked without ``--engine``.  ``scales`` entries are
    preset names or -- symmetric with the inline-vs-named ``scenario``
    -- inline :class:`~repro.experiments.common.Scale` objects (JSON
    mappings of the Scale fields), which is how ad-hoc sizes outside the
    registry run through the plan machinery.  ``n_nodes`` and ``cycles``
    override the scale preset (the spec's own ``cycles`` field, if set,
    wins over the preset but loses to the plan override).
    """

    name: str = "plan"
    scenario: Union[str, ScenarioSpec] = "random-convergence"
    protocols: Tuple[str, ...] = ("(rand,head,pushpull)",)
    scales: Tuple[str, ...] = ("quick",)
    engines: Tuple[Optional[str], ...] = (None,)
    seeds: Tuple[int, ...] = (0,)
    n_nodes: Optional[int] = None
    cycles: Optional[int] = None
    measurements: Tuple[str, ...] = ()
    description: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.experiments.common import ENGINES, SCALES, Scale

        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"plan name must be a non-empty string, got {self.name!r}"
            )
        if isinstance(self.scenario, str):
            if self.scenario not in SCENARIOS:
                raise ConfigurationError(
                    f"unknown scenario {self.scenario!r}; choose from "
                    f"{sorted(SCENARIOS)} or inline a scenario spec"
                )
        elif not isinstance(self.scenario, ScenarioSpec):
            raise ConfigurationError(
                f"scenario must be a name or a ScenarioSpec, got "
                f"{self.scenario!r}"
            )
        for attr in ("protocols", "scales", "engines", "seeds", "measurements"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        if not self.protocols:
            raise ConfigurationError("plan needs at least one protocol")
        from repro.extensions.registry import is_extension_protocol

        for label in self.protocols:
            if is_extension_protocol(label):
                continue  # registry names (cyclon, peerswap) are valid
            ProtocolConfig.from_label(label)  # raises on bad labels
        if not self.scales:
            raise ConfigurationError("plan needs at least one scale")
        for scale_entry in self.scales:
            if isinstance(scale_entry, Scale):
                scale_entry.validate()  # eager, like every other axis
                continue
            if not isinstance(scale_entry, str) or scale_entry not in SCALES:
                raise ConfigurationError(
                    f"unknown scale {scale_entry!r}; choose from "
                    f"{sorted(SCALES)} or inline a Scale"
                )
        if not self.engines:
            raise ConfigurationError(
                "plan needs at least one engine (null = scale default)"
            )
        for engine_name in self.engines:
            if engine_name is not None and engine_name not in ENGINES:
                raise ConfigurationError(
                    f"unknown engine {engine_name!r}; choose from "
                    f"{sorted(ENGINES)} (or null for the scale default)"
                )
        if not self.seeds:
            raise ConfigurationError("plan needs at least one seed")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigurationError(
                    f"seeds must be integers, got {seed!r}"
                )
        for measurement in self.measurements:
            if measurement not in MEASUREMENTS:
                raise ConfigurationError(
                    f"unknown measurement {measurement!r}; choose from "
                    f"{sorted(MEASUREMENTS)}"
                )
        if len(set(self.measurements)) != len(self.measurements):
            raise ConfigurationError(
                f"measurements must be distinct, got {list(self.measurements)}"
            )
        if self.n_nodes is not None and (
            not isinstance(self.n_nodes, int) or self.n_nodes < 1
        ):
            raise ConfigurationError(
                f"n_nodes must be a positive integer, got {self.n_nodes!r}"
            )
        if self.cycles is not None and (
            not isinstance(self.cycles, int) or self.cycles < 1
        ):
            raise ConfigurationError(
                f"cycles must be a positive integer, got {self.cycles!r}"
            )

    @property
    def total_runs(self) -> int:
        """Number of cells in the cross-product."""
        return (
            len(self.protocols)
            * len(self.scales)
            * len(self.engines)
            * len(self.seeds)
        )

    def resolve_scenario(self, scale) -> ScenarioSpec:
        """The concrete spec for one scale (named scenarios scale along)."""
        if isinstance(self.scenario, str):
            return named_scenario(self.scenario, scale)
        return self.scenario

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (``None`` engine entries become ``null``,
        inline scales become mappings of their fields)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "scenario": (
                self.scenario
                if isinstance(self.scenario, str)
                else self.scenario.to_dict()
            ),
            "protocols": list(self.protocols),
            "scales": [
                entry if isinstance(entry, str) else dataclasses.asdict(entry)
                for entry in self.scales
            ],
            "engines": list(self.engines),
            "seeds": list(self.seeds),
        }
        for key in ("n_nodes", "cycles", "description"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.measurements:
            payload["measurements"] = list(self.measurements)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentPlan":
        """Parse a mapping; unknown keys raise eagerly."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"experiment plan must be a mapping, got {payload!r}"
            )
        unknown = sorted(set(payload) - set(_PLAN_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown plan field(s) {unknown}; valid fields: "
                f"{sorted(_PLAN_FIELDS)}"
            )
        kwargs: Dict[str, Any] = {
            key: payload[key] for key in _PLAN_FIELDS if key in payload
        }
        scenario = kwargs.get("scenario")
        if isinstance(scenario, Mapping):
            kwargs["scenario"] = ScenarioSpec.from_dict(scenario)
        if "scales" in kwargs and isinstance(kwargs["scales"], (list, tuple)):
            from repro.experiments.common import Scale

            converted = []
            for entry in kwargs["scales"]:
                if isinstance(entry, Mapping):
                    try:
                        converted.append(Scale(**entry))
                    except TypeError as exc:
                        raise ConfigurationError(
                            f"invalid inline scale {dict(entry)!r}: {exc}"
                        ) from None
                else:
                    converted.append(entry)
            kwargs["scales"] = tuple(converted)
        if "engines" in kwargs:
            kwargs["engines"] = tuple(
                None if engine in (None, "default") else engine
                for engine in kwargs["engines"]
            )
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "ExperimentPlan":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"experiment plan is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(payload)


# -- execution ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One executed cell of the plan's cross-product."""

    scenario: str
    protocol: str
    scale: str
    engine: str
    """The engine that actually ran the cell, always resolved -- when the
    plan's engine entry was ``None``, this is whatever ``$REPRO_ENGINE``
    or the scale preset's default supplied."""
    engine_requested: Optional[str]
    """The plan's engine axis entry for this cell: an explicit registry
    name, or ``None`` when the cell deferred to the default.  Together
    with :attr:`engine` this makes ``--out`` records self-describing --
    a defaulted run is distinguishable from an explicit ``--engine``."""
    seed: int
    cycles: int
    final_nodes: int
    completed_exchanges: int
    failed_exchanges: int
    views_digest: str
    """Canonical overlay digest -- equal digests mean byte-identical
    final views (the cross-engine identity criterion)."""
    measurements: Dict[str, Any]
    elapsed_seconds: float
    """Wall-clock seconds the cell took *where it ran* (in the worker
    process under parallel execution).  Excluded, with :attr:`timings`,
    from the serial/parallel identity contract -- see
    :meth:`canonical_dict`."""
    timings: Dict[str, float]
    """:attr:`elapsed_seconds` split by phase: ``prepare_s`` (engine,
    bootstrap, measurement set-up), ``run_s`` (the cycles, per-cycle
    observers included), ``digest_s`` (:attr:`views_digest`) and
    ``extract_s`` (the post-run measurement extractors)."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return dataclasses.asdict(self)

    def canonical_dict(self) -> Dict[str, Any]:
        """The record without its wall-clock fields
        (:attr:`elapsed_seconds`, :attr:`timings`).

        This is the byte-identity contract of plan execution: two runs of
        the same plan -- serial, parallel, any worker count -- must
        produce equal canonical dicts in the same order (pinned by
        ``tests/workloads/test_parallel.py``).
        """
        payload = self.to_dict()
        del payload["elapsed_seconds"]
        del payload["timings"]
        return payload


@dataclasses.dataclass(frozen=True)
class PlanResult:
    """Every record of one executed plan."""

    plan: ExperimentPlan
    records: List[RunRecord]
    workers: int = 1
    """Worker processes the plan executed on (1 = in-process serial).
    Provenance only -- results are byte-identical for every value."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (plan inline, one entry per record)."""
        return {
            "plan": self.plan.to_dict(),
            "workers": self.workers,
            "records": [record.to_dict() for record in self.records],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize results (plan included) to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def records_digest(self) -> str:
        """SHA-256 over the canonical records, in order.

        Equal digests mean the two executions produced byte-identical
        records (overlay digests, measurements, metadata and ordering;
        wall-clock timings excluded) -- the single number the
        serial-vs-parallel conformance suite compares.
        """
        canonical = json.dumps(
            [record.canonical_dict() for record in self.records],
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class PlanCell:
    """A spawn-safe description of one plan cell.

    Every field is a picklable primitive (the scenario is its JSON
    mapping), so a cell can cross a ``spawn`` process boundary and be
    re-executed bit-for-bit: :func:`execute_cell` rebuilds the spec via
    :meth:`~repro.workloads.spec.ScenarioSpec.from_dict` and the protocol
    via :meth:`~repro.core.config.ProtocolConfig.from_label` -- both
    round-trips are pinned identity-preserving -- and seeds a fresh
    engine, so a cell's record never depends on which process ran it.
    The engine name is resolved (env and scale defaults applied) in the
    parent before the cell is built: workers never consult the
    environment for it.
    """

    scenario: Mapping[str, Any]
    protocol: str
    scale: Any
    """A preset name, or the inline
    :class:`~repro.experiments.common.Scale` itself (a frozen dataclass
    of primitives -- equally spawn-picklable)."""
    engine: str
    engine_requested: Optional[str]
    seed: int
    n_nodes: Optional[int]
    cycles: Optional[int]
    measurements: Tuple[str, ...]

    @property
    def scale_name(self) -> str:
        return self.scale if isinstance(self.scale, str) else self.scale.name

    def resolve_scale(self):
        """The cell's :class:`~repro.experiments.common.Scale` object."""
        from repro.experiments.common import SCALES

        return (
            SCALES[self.scale] if isinstance(self.scale, str) else self.scale
        )

    def describe(self) -> str:
        """Human-readable cell identity for progress and error messages."""
        return (
            f"scenario {self.scenario.get('name', '?')!r}, protocol "
            f"{self.protocol}, scale {self.scale_name}, engine "
            f"{self.engine}, seed {self.seed}"
        )


def plan_scales(plan: ExperimentPlan) -> Tuple[Any, ...]:
    """The resolved :class:`Scale` object of every ``scales`` entry."""
    from repro.experiments.common import SCALES

    return tuple(
        SCALES[entry] if isinstance(entry, str) else entry
        for entry in plan.scales
    )


def plan_cells(plan: ExperimentPlan) -> List[PlanCell]:
    """Expand a plan's cross-product into cells, in deterministic order.

    The order -- scales, then engines, then protocols, then seeds -- is
    the execution *and* record order of :func:`run_plan`, independent of
    worker count and completion order.  Every feature a cell uses (its
    protocol's, its scenario's, the environment's knobs) is checked
    against its engine here, so an unsupported combination raises
    :class:`~repro.core.errors.ConfigurationError` before any cell runs.
    """
    from repro.experiments.common import (
        ENGINES,
        engine_knobs,
        resolve_engine_name,
    )
    from repro.extensions.registry import is_extension_protocol

    cells: List[PlanCell] = []
    for scale_entry, scale in zip(plan.scales, plan_scales(plan)):
        spec = plan.resolve_scenario(scale)
        spec_payload = spec.to_dict()
        scenario = f"scenario {spec.name!r}"
        for engine_name in plan.engines:
            effective_engine = resolve_engine_name(
                engine_name, default=scale.default_engine
            )
            engine = ENGINES[effective_engine]
            engine_knobs(
                engine, spec.latency, spec.loss,
                flag=lambda knob: f"{scenario} {knob}",
            )
            if spec.adversary is not None:
                require(engine, "adversary", f"{scenario} adversary block")
            for label in plan.protocols:
                if is_extension_protocol(label):
                    require(engine, "extension", f"protocol {label!r}")
                elif ProtocolConfig.from_label(label).validate_descriptors:
                    require(engine, "validation", f"protocol {label!r}")
                for seed in plan.seeds:
                    cells.append(
                        PlanCell(
                            scenario=spec_payload,
                            protocol=label,
                            scale=scale_entry,
                            engine=effective_engine,
                            engine_requested=engine_name,
                            seed=seed,
                            n_nodes=plan.n_nodes,
                            cycles=plan.cycles,
                            measurements=plan.measurements,
                        )
                    )
    return cells


def execute_cell(cell: PlanCell) -> RunRecord:
    """Run one cell to completion and build its record.

    The single execution path behind both serial and parallel plan
    execution (it is the worker-process entry point's body), so the two
    modes cannot drift: everything a run depends on -- spec, protocol,
    scale, engine, seed -- comes out of the cell, and the engine RNG is
    seeded exactly as an in-process run would seed it.
    """
    from repro.extensions.registry import (
        extension_protocol,
        is_extension_protocol,
    )

    scale = cell.resolve_scale()
    spec = ScenarioSpec.from_dict(cell.scenario)
    started = time.perf_counter()
    if is_extension_protocol(cell.protocol):
        # A registry name: the cell runs a bespoke node factory on the
        # plain cycle engine instead of a generic ProtocolConfig.
        entry = extension_protocol(cell.protocol)
        ext_config = entry.make_config(scale.view_size)
        runtime = prepare_run(
            spec,
            None,
            scale=scale,
            seed=cell.seed,
            engine=cell.engine,
            n_nodes=cell.n_nodes,
            cycles=cell.cycles,
            node_factory=entry.make_factory(ext_config),
        )
        protocol_label = ext_config.label
    else:
        config = ProtocolConfig.from_label(
            cell.protocol, view_size=scale.view_size
        )
        runtime = prepare_run(
            spec,
            config,
            scale=scale,
            seed=cell.seed,
            engine=cell.engine,
            n_nodes=cell.n_nodes,
            cycles=cell.cycles,
        )
        protocol_label = config.label
    extract = measure(runtime, cell.measurements, scale)
    prepared = time.perf_counter()
    runtime.run_to_end()
    ran = time.perf_counter()
    digest = runtime.views_digest()
    digested = time.perf_counter()
    measurements = extract()
    finished = time.perf_counter()
    return RunRecord(
        scenario=spec.name,
        protocol=protocol_label,
        scale=cell.scale_name,
        engine=cell.engine,
        engine_requested=cell.engine_requested,
        seed=cell.seed,
        cycles=runtime.cycles,
        final_nodes=len(runtime.engine),
        completed_exchanges=runtime.engine.completed_exchanges,
        failed_exchanges=runtime.engine.failed_exchanges,
        views_digest=digest,
        measurements=measurements,
        elapsed_seconds=finished - started,
        timings={
            "prepare_s": prepared - started,
            "run_s": ran - prepared,
            "digest_s": digested - ran,
            "extract_s": finished - digested,
        },
    )


_FAULT_ENV = "REPRO_WORKLOADS_FAULT"
"""Fault-injection hook for the crash-propagation tests: when set to
``"exit"``, workers die before executing anything, simulating a child
process killed mid-plan (OOM, segfault in native code, ...)."""


def _cell_worker(cell: PlanCell) -> RunRecord:
    """Worker-process entry point (module-level: picklable under spawn)."""
    if os.environ.get(_FAULT_ENV) == "exit":
        os._exit(13)
    return execute_cell(cell)


def _cell_failure(cell: PlanCell, error: BaseException) -> PlanExecutionError:
    return PlanExecutionError(
        f"plan cell ({cell.describe()}) failed: {error}"
    )


def _timeout_failure(
    timeout: float, completed: int, total: int
) -> PlanExecutionError:
    return PlanExecutionError(
        f"plan execution timed out after {timeout}s "
        f"({completed}/{total} cells completed)"
    )


def _run_cells_serial(
    cells: List[PlanCell],
    on_record: Optional[Callable[[RunRecord], None]],
    timeout: Optional[float],
) -> List[RunRecord]:
    deadline = None if timeout is None else time.monotonic() + timeout
    records: List[RunRecord] = []
    for cell in cells:
        if deadline is not None and time.monotonic() > deadline:
            raise _timeout_failure(timeout, len(records), len(cells))
        try:
            record = execute_cell(cell)
        except Exception as error:
            raise _cell_failure(cell, error) from error
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


def _run_cells_parallel(
    cells: List[PlanCell],
    on_record: Optional[Callable[[RunRecord], None]],
    workers: int,
    timeout: Optional[float],
) -> List[RunRecord]:
    """Dispatch cells to a spawn process pool; merge in plan order.

    Completion order is whatever the pool produces; records are buffered
    and released to ``on_record`` (and the returned list) strictly in
    plan-cell order, so streaming consumers observe exactly the serial
    sequence.  Any cell failure, worker death or timeout cancels the
    remaining cells and surfaces as
    :class:`~repro.core.errors.PlanExecutionError`.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # Compile the shared C core once here, in the parent, so cold
    # workers load the cached library instead of each racing a compiler.
    warm_shared_caches([cell.engine for cell in cells])
    context = multiprocessing.get_context("spawn")
    executor = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    deadline = None if timeout is None else time.monotonic() + timeout
    results: Dict[int, RunRecord] = {}
    emitted = 0
    try:
        index_of = {
            executor.submit(_cell_worker, cell): index
            for index, cell in enumerate(cells)
        }
        pending = set(index_of)
        while pending:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise _timeout_failure(timeout, len(results), len(cells))
            done, pending = wait(
                pending, timeout=remaining, return_when=FIRST_COMPLETED
            )
            if not done:
                raise _timeout_failure(timeout, len(results), len(cells))
            for future in done:
                cell = cells[index_of[future]]
                try:
                    record = future.result()
                except BrokenProcessPool as error:
                    # A dead worker breaks *every* outstanding future at
                    # once, so the victim cell cannot be pinpointed --
                    # report the unfinished set instead of misdirecting
                    # the user at an arbitrary one.
                    unfinished = len(cells) - len(results)
                    raise PlanExecutionError(
                        f"a worker process died mid-plan ({unfinished} of "
                        f"{len(cells)} cells unfinished; the dying cell "
                        f"cannot be identified): {error}"
                    ) from error
                except Exception as error:
                    raise _cell_failure(cell, error) from error
                results[index_of[future]] = record
            # Release the longest completed prefix, in plan order.
            while emitted in results:
                if on_record is not None:
                    on_record(results[emitted])
                emitted += 1
    except BaseException:
        executor.shutdown(wait=False, cancel_futures=True)
        # Best effort: running cells cannot be cancelled through the
        # executor API, so put abandoned workers out of their misery
        # instead of letting a timed-out cell burn CPU to completion.
        for process in list(
            (getattr(executor, "_processes", None) or {}).values()
        ):
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        raise
    executor.shutdown(wait=True)
    return [results[index] for index in range(len(cells))]


def effective_workers(
    plans: Sequence[ExperimentPlan], workers: Optional[int] = None
) -> int:
    """The worker count a :func:`run_plans` call would actually use.

    Resolution (explicit > ``$REPRO_WORKERS`` > scale defaults, 0 = one
    per core) clamped to the plans' total cell count -- the single
    source of truth shared by the executor and the CLI's progress
    header, so the printed count always matches the
    :attr:`PlanResult.workers` provenance.
    """
    from repro.experiments.common import resolve_workers

    resolved = resolve_workers(
        workers,
        scales=tuple(
            scale for plan in plans for scale in plan_scales(plan)
        ),
    )
    total_cells = sum(plan.total_runs for plan in plans)
    return max(1, min(resolved, total_cells))


def run_plans(
    plans: Sequence[ExperimentPlan],
    *,
    workers: Optional[int] = None,
    on_record: Optional[Callable[[RunRecord], None]] = None,
    timeout: Optional[float] = None,
) -> List[PlanResult]:
    """Execute several plans through one (optionally parallel) executor.

    All plans' cells share the worker pool -- how the artefact modules
    parallelize studies whose per-run seeds differ across protocols
    (each protocol is its own single-axis plan, but every cell still
    lands on an idle core).  Records stream to ``on_record`` and are
    returned in deterministic order: plans in the given order, cells in
    :func:`plan_cells` order within each plan, regardless of completion
    order.

    ``workers`` resolves through
    :func:`~repro.experiments.common.resolve_workers`: explicit value >
    ``$REPRO_WORKERS`` > the largest ``default_workers`` among the
    plans' scale presets (``full`` defaults to one worker per core) >
    serial.  ``workers=1`` executes in-process; anything higher
    dispatches cells to a ``spawn`` process pool.  Either way the
    records -- including every overlay digest and measurement series --
    are byte-identical (:meth:`PlanResult.records_digest`).

    ``timeout`` bounds the whole execution in wall-clock seconds; on
    expiry (or on any cell failure or worker death) outstanding cells
    are cancelled and :class:`~repro.core.errors.PlanExecutionError` is
    raised.  Parallel mode enforces the deadline *while* cells run
    (abandoned workers are terminated); serial in-process execution
    cannot interrupt a running cell, so it checks the deadline between
    cells -- a single long cell finishes before the expiry is noticed.
    """
    cells: List[PlanCell] = []
    bounds: List[Tuple[int, int]] = []
    for plan in plans:
        start = len(cells)
        cells.extend(plan_cells(plan))
        bounds.append((start, len(cells)))
    # More workers than cells would idle; the clamped value is also the
    # recorded provenance, so PlanResult.workers reports what actually
    # ran (1 = in-process serial).
    resolved_workers = effective_workers(plans, workers)
    if resolved_workers <= 1:
        records = _run_cells_serial(cells, on_record, timeout)
    else:
        records = _run_cells_parallel(
            cells, on_record, resolved_workers, timeout
        )
    return [
        PlanResult(
            plan=plan,
            records=records[start:stop],
            workers=resolved_workers,
        )
        for plan, (start, stop) in zip(plans, bounds)
    ]


def run_plan(
    plan: ExperimentPlan,
    on_record: Optional[Callable[[RunRecord], None]] = None,
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
) -> PlanResult:
    """Execute every cell of ``plan`` and collect the records.

    Cells run in deterministic order (scales, then engines, then
    protocols, then seeds); ``on_record`` is invoked after each cell in
    that order, which is how the CLI streams progress.  Engine
    construction, bootstrap and schedule execution all go through
    :func:`~repro.workloads.runtime.prepare_run`, so a plan exercises
    exactly the code path the artefact modules use.

    ``workers`` selects process-parallel execution (see
    :func:`run_plans` for resolution and semantics); results are
    byte-identical to serial execution for every worker count, pinned
    by ``tests/workloads/test_parallel.py``.
    """
    return run_plans(
        [plan], workers=workers, on_record=on_record, timeout=timeout
    )[0]
