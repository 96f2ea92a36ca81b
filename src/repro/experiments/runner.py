"""CLI runner: regenerate any paper artefact from the command line.

Usage::

    repro-experiments list
    repro-experiments list-scenarios
    repro-experiments run table1 --scale quick
    repro-experiments run all --scale full --seed 7
    repro-experiments run figure7 --engine fast
    repro-experiments run figure7 --engine fast-event --latency 0.1 --loss 0.01
    repro-experiments run-spec my_study.json --out results.json
    python -m repro.experiments.runner run figure7

``--scale`` overrides the ``REPRO_SCALE`` environment variable; ``full``
is the paper's parameterization (hours on the reference ``cycle`` engine;
pass ``--engine fast`` to run the array-backed engine instead -- same
results for the same seed, far faster).  ``--engine event`` /
``--engine fast-event`` re-derive an artefact under the asynchronous
execution model; only those engines accept ``--latency`` / ``--loss``
(constant per-message delay in gossip periods, Bernoulli drop
probability), and the selection -- including ``$REPRO_ENGINE`` -- is
validated eagerly before any experiment starts.

``run-spec`` executes a declarative workload document
(:mod:`repro.workloads`): either a full
:class:`~repro.workloads.plan.ExperimentPlan` (``protocols x scenario x
scales x engines x seeds``) or a bare
:class:`~repro.workloads.spec.ScenarioSpec`, which is wrapped into a
single-cell plan parameterized by the same ``--scale`` / ``--engine`` /
``--seed`` flags the artefact runner takes.  The document is validated
eagerly -- unknown event kinds, engines, scales or out-of-range
parameters exit 2 before any simulation starts -- and ``--out`` writes
the machine-readable records (final-overlay digests plus measurement
series) as JSON.

Multi-cell plans (``run-spec``, and the plan-driven artefacts table1 /
table2 / figure2 / figure5 / figure7) execute on ``--workers N``
processes (``0`` = one per core; also ``$REPRO_WORKERS``); the ``full``
scale preset parallelizes automatically.  Parallel execution is
byte-identical to serial -- same records, ordering and overlay digests
-- pinned by ``tests/workloads/test_parallel.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
import time
from typing import Iterator, List, Mapping, Optional, Sequence

from repro.core.errors import ConfigurationError, PlanExecutionError
from repro.experiments import EXPERIMENT_IDS
from repro.experiments.common import (
    ENGINE_ENV_VAR,
    ENGINES,
    LATENCY_ENV_VAR,
    LOSS_ENV_VAR,
    SCALES,
    SHARDS_ENV_VAR,
    WORKERS_ENV_VAR,
    current_scale,
    engine_knobs,
    resolve_engine_name,
    resolve_workers,
)
from repro.simulation.base import FEATURES

_DESCRIPTIONS = {
    "table1": "partitioning of push protocols in the growing scenario",
    "figure2": "topology dynamics while the overlay grows",
    "figure3": "convergence from lattice and random starts",
    "figure4": "degree distribution evolution (log-log)",
    "table2": "degree dynamics of individual nodes",
    "figure5": "autocorrelation of a node's degree",
    "figure6": "connectivity under massive node removal",
    "figure7": "self-healing after a 50% crash",
    "services": "gossip services (broadcast/averaging/search) vs oracle",
    "live-control": "live UDP cluster bootstrapped only through the seed "
    "node (control plane)",
    "attack": "hub-poisoning sweep: attacker fraction x protocol "
    "(generic, healer, cyclon, peerswap, brahms, generic+validation)",
}


@contextlib.contextmanager
def _env_overrides(values: Mapping[str, object]) -> Iterator[None]:
    """Set each ``$VAR`` whose value is not ``None`` for the duration.

    The CLI's knobs reach the experiment helpers and plan cells (pool
    workers included) the way every other setting does: through their
    environment variables, restored afterwards.
    """
    overrides = {
        var: str(value) for var, value in values.items() if value is not None
    }
    previous = {var: os.environ.get(var) for var in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for var, value in previous.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_experiment(
    experiment_id: str,
    scale_name: Optional[str],
    seed: int,
    engine: Optional[str] = None,
    latency: Optional[float] = None,
    loss: Optional[float] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> str:
    """Run one experiment and return its text report.

    ``engine`` selects the simulation engine for every helper that honors
    ``$REPRO_ENGINE`` (see :mod:`repro.experiments.common`); ``latency``,
    ``loss``, ``workers`` and ``shards`` are forwarded the same way
    (``$REPRO_LATENCY`` / ``$REPRO_LOSS`` / ``$REPRO_WORKERS`` /
    ``$REPRO_SHARDS``) -- latency/loss only apply to event-driven
    engines, ``workers`` to the artefacts that execute multi-cell plans,
    ``shards`` to the ``fast-sharded`` engine.
    """
    # Experiment ids are user-facing (hyphenated); modules are importable.
    module_name = experiment_id.replace("-", "_")
    module = importlib.import_module(f"repro.experiments.{module_name}")
    scale = current_scale(scale_name)
    with _env_overrides({
        ENGINE_ENV_VAR: engine,
        LATENCY_ENV_VAR: None if latency is None else repr(latency),
        LOSS_ENV_VAR: None if loss is None else repr(loss),
        WORKERS_ENV_VAR: workers,
        SHARDS_ENV_VAR: shards,
    }):
        result = module.run(scale=scale, seed=seed)
    return module.report(result)


def engine_table() -> List[str]:
    """The engine registry as markdown rows: each engine's execution
    family and supported features.  ``repro-experiments list`` prints
    them and README.md carries them verbatim (a tier-1 test compares)."""
    lines = ["| engine | family | features |", "|---|---|---|"]
    for name, cls in ENGINES.items():
        supported = ", ".join(f for f in FEATURES if f in cls.features)
        lines.append(f"| `{name}` | {cls.family} | {supported} |")
    return lines


def _cmd_list() -> int:
    from repro.workloads import MEASUREMENTS, SCENARIOS
    from repro.workloads.spec import BOOTSTRAP_KINDS, EVENT_KINDS

    print("available experiments (paper artefacts):")
    for experiment_id in EXPERIMENT_IDS:
        print(f"  {experiment_id:10s} {_DESCRIPTIONS[experiment_id]}")
    print(f"\nscales: {', '.join(SCALES)} (select with --scale or $REPRO_SCALE)")
    print("\nengines (select with --engine or $REPRO_ENGINE):")
    print("\n".join(engine_table()))
    print()
    print(
        f"scenarios: {', '.join(SCENARIOS)} "
        "(details: repro-experiments list-scenarios)"
    )
    print(f"scenario event kinds: {', '.join(sorted(EVENT_KINDS))}")
    print(f"bootstrap kinds: {', '.join(BOOTSTRAP_KINDS)}")
    print(f"measurements: {', '.join(sorted(MEASUREMENTS))}")
    return 0


def _cmd_list_scenarios() -> int:
    from repro.workloads import MEASUREMENTS
    from repro.workloads.library import scenario_descriptions
    from repro.workloads.spec import BOOTSTRAP_KINDS, EVENT_KINDS

    print("built-in scenarios (usable by name in run-spec plans):")
    for name, description in scenario_descriptions().items():
        print(f"  {name:22s} {description}")
    print("\nschedule event kinds (for inline scenario specs):")
    for kind, cls in sorted(EVENT_KINDS.items()):
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {kind:22s} {summary}")
    print(f"\nbootstrap kinds: {', '.join(BOOTSTRAP_KINDS)}")
    print("\nmeasurements (recordable per run):")
    for name, measurement in sorted(MEASUREMENTS.items()):
        print(f"  {name:22s} {measurement.description}")
    return 0


def _cmd_run_spec(
    path: str,
    out: Optional[str],
    scale_name: Optional[str],
    engine: Optional[str],
    seeds: Optional[List[int]],
    protocols: Optional[List[str]],
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> int:
    import dataclasses
    import json

    from repro.experiments.reporting import format_table
    from repro.workloads import (
        ExperimentPlan,
        ScenarioSpec,
        plan_cells,
        run_plan,
    )

    try:
        with open(path, encoding="utf-8") as handle:
            document = handle.read()
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return 2
    # A document with plan axes is a plan; anything else must parse as a
    # bare scenario spec, wrapped into a single-cell plan from the CLI
    # flags.  Both paths validate eagerly (exit 2, no simulation).
    try:
        payload = json.loads(document)
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"spec document must be a JSON object, got {payload!r}"
            )
        if "protocols" in payload or "scenario" in payload:
            plan = ExperimentPlan.from_dict(payload)
        else:
            plan = ExperimentPlan(
                name=payload.get("name", "spec"),
                scenario=ScenarioSpec.from_dict(payload),
            )
        overrides = {}
        if scale_name is not None:
            overrides["scales"] = (scale_name,)
        if engine is not None:
            overrides["engines"] = (engine,)
        if seeds:
            overrides["seeds"] = tuple(seeds)
        if protocols:
            overrides["protocols"] = tuple(protocols)
        if overrides:
            plan = dataclasses.replace(plan, **overrides)
        # Eager workers validation: a typo'd --workers / $REPRO_WORKERS
        # exits 2 here, before any simulation starts.  effective_workers
        # is the executor's own resolution, so the printed count always
        # matches the PlanResult.workers provenance in --out records.
        from repro.workloads.plan import effective_workers

        resolved_workers = effective_workers([plan], workers)
        # Every feature every cell uses -- protocol, scenario, the
        # environment's knobs, and --shards -- against its engine.
        for name in dict.fromkeys(cell.engine for cell in plan_cells(plan)):
            engine_knobs(
                ENGINES[name], shards=shards, flag=lambda knob: f"--{knob}"
            )
    except (ConfigurationError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"plan {plan.name!r}: {len(plan.protocols)} protocol(s) x "
        f"scenario x {len(plan.scales)} scale(s) x "
        f"{len(plan.engines)} engine(s) x {len(plan.seeds)} seed(s) "
        f"= {plan.total_runs} run(s) on {resolved_workers} worker(s)"
    )
    started = time.perf_counter()
    try:
        with _env_overrides({SHARDS_ENV_VAR: shards}):
            result = run_plan(
                plan,
                on_record=lambda record: print(
                    f"  [{record.scenario} | {record.protocol} | "
                    f"{record.engine} | {record.scale} | seed {record.seed}] "
                    f"{record.final_nodes} nodes, "
                    f"{record.completed_exchanges} exchanges, "
                    f"digest {record.views_digest[:12]}, "
                    f"{record.elapsed_seconds:.1f}s"
                ),
                workers=resolved_workers,
            )
    except ConfigurationError as error:
        # Anything construction missed (defensive; axis entries are
        # validated eagerly above) still exits cleanly.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except PlanExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    headers = [
        "scenario", "protocol", "engine", "scale", "seed",
        "cycles", "nodes", "exchanges", "digest",
    ]
    rows = [
        [
            record.scenario, record.protocol, record.engine, record.scale,
            record.seed, record.cycles, record.final_nodes,
            record.completed_exchanges, record.views_digest[:12],
        ]
        for record in result.records
    ]
    print()
    print(format_table(headers, rows, title=f"plan {plan.name!r} results"))
    print(f"\n[{plan.total_runs} run(s) completed in {elapsed:.1f}s]")
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"records written to {out}")
    return 0


def _cmd_run(
    ids: List[str],
    scale_name: Optional[str],
    seed: int,
    engine: Optional[str] = None,
    latency: Optional[float] = None,
    loss: Optional[float] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> int:
    if ids == ["all"]:
        ids = list(EXPERIMENT_IDS)
    unknown = [i for i in ids if i not in EXPERIMENT_IDS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(EXPERIMENT_IDS)} or 'all'", file=sys.stderr)
        return 2
    # Validate the engine and the latency/loss/shards knobs eagerly --
    # including the $REPRO_* environment fallbacks, NaN, and out-of-range
    # values -- so a typo or a knob/engine mismatch fails in milliseconds
    # with a clear message instead of a traceback (or a silently
    # meaningless report) mid-way through a long run.  engine_knobs is
    # what make_engine applies, so nothing can pass here and fail there.
    try:
        scale = current_scale(scale_name)
        effective_engine = resolve_engine_name(
            engine, default=scale.default_engine
        )
        engine_knobs(
            ENGINES[effective_engine], latency, loss, shards,
            flag=lambda knob: f"--{knob}",
        )
        resolve_workers(workers, scales=(scale,))
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for experiment_id in ids:
        started = time.perf_counter()
        report = run_experiment(
            experiment_id, scale_name, seed, engine, latency, loss, workers,
            shards,
        )
        elapsed = time.perf_counter() - started
        print(report)
        print(f"\n[{experiment_id} completed in {elapsed:.1f}s]\n")
    return 0


_SHARDS_HELP = (
    "shards within each single run (0 = one per core; also $REPRO_SHARDS); "
    "fast-sharded engine only -- with the C core the shards are worker "
    "processes running the C phases, without one they run in-process; "
    "results are identical at any shard count"
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the peer "
        "sampling paper (Jelasity et al., Middleware 2004).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser(
        "list",
        help="list experiments, scales, engines and the scenario "
        "vocabulary",
    )
    subparsers.add_parser(
        "list-scenarios",
        help="describe the built-in scenarios, event kinds and "
        "measurements of the workload API",
    )
    spec_parser = subparsers.add_parser(
        "run-spec",
        help="execute a declarative workload document (an ExperimentPlan "
        "or bare ScenarioSpec JSON file)",
    )
    spec_parser.add_argument(
        "path", help="JSON file holding the plan or scenario spec"
    )
    spec_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the machine-readable records as JSON",
    )
    spec_parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="override the plan's scale axis with one preset",
    )
    spec_parser.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=None,
        help="override the plan's engine axis with one engine",
    )
    spec_parser.add_argument(
        "--seed",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="override the plan's seeds (repeatable)",
    )
    spec_parser.add_argument(
        "--protocol",
        action="append",
        default=None,
        metavar="LABEL",
        help="override the plan's protocols, e.g. '(rand,head,pushpull)' "
        "or '(rand,head,pushpull);H1S1' (repeatable)",
    )
    spec_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for plan cells (0 = one per core; default: "
        "$REPRO_WORKERS, then the scale preset -- 'full' parallelizes "
        "automatically); results are byte-identical to serial execution",
    )
    spec_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=_SHARDS_HELP,
    )
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "ids",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENT_IDS)}) or 'all'",
    )
    run_parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="scale preset (default: $REPRO_SCALE or 'quick')",
    )
    run_parser.add_argument(
        "--seed", type=int, default=0, help="base random seed (default 0)"
    )
    run_parser.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=None,
        help="simulation engine (default: $REPRO_ENGINE or 'cycle'); "
        "'fast' gives identical results, much faster at scale; "
        "'event'/'fast-event' run the asynchronous latency/loss model",
    )
    run_parser.add_argument(
        "--latency",
        type=float,
        default=None,
        metavar="PERIODS",
        help="constant per-message latency in gossip periods "
        "(event-driven engines only; also $REPRO_LATENCY)",
    )
    run_parser.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="PROB",
        help="per-message Bernoulli loss probability "
        "(event-driven engines only; also $REPRO_LOSS)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the plan-driven artefacts "
        "(0 = one per core; also $REPRO_WORKERS); byte-identical results "
        "at any worker count",
    )
    run_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=_SHARDS_HELP,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "list-scenarios":
        return _cmd_list_scenarios()
    if args.command == "run-spec":
        return _cmd_run_spec(
            args.path,
            args.out,
            args.scale,
            args.engine,
            args.seed,
            args.protocol,
            args.workers,
            args.shards,
        )
    return _cmd_run(
        args.ids,
        args.scale,
        args.seed,
        args.engine,
        args.latency,
        args.loss,
        args.workers,
        args.shards,
    )


if __name__ == "__main__":
    sys.exit(main())
