"""Shared experiment infrastructure: scales, protocol sets, run helpers.

The paper's full parameters (N = 10^4, c = 30, 300 cycles, 100 repetitions)
are expensive in pure Python, so every experiment accepts a :class:`Scale`.
``full`` is the paper; ``default`` and ``quick`` shrink N, the cycle count
and the repetition count while keeping every qualitative conclusion intact
(see DESIGN.md Section 5 for the substitution argument).
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
from typing import Dict, Optional, Tuple, Type, Union

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.core.policies import PeerSelection, Propagation, ViewSelection
from repro.net.engine import LiveEngine
from repro.simulation.base import BaseEngine
from repro.simulation.engine import CycleEngine
from repro.simulation.event_engine import EventEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.sharded import (
    SHARDS_ENV_VAR,
    ShardedCycleEngine,
    resolve_shards,
)
from repro.simulation.network import (
    BernoulliLoss,
    ConstantLatency,
    LatencyModel,
    LossModel,
)

SCALE_ENV_VAR = "REPRO_SCALE"
"""Environment variable selecting the default scale preset."""

ENGINE_ENV_VAR = "REPRO_ENGINE"
"""Environment variable selecting the default simulation engine."""

LATENCY_ENV_VAR = "REPRO_LATENCY"
"""Constant per-message latency (in gossip periods) for event engines."""

LOSS_ENV_VAR = "REPRO_LOSS"
"""Per-message Bernoulli loss probability for event engines."""

WORKERS_ENV_VAR = "REPRO_WORKERS"
"""Worker-process count for parallel plan execution (0 = one per core)."""

# SHARDS_ENV_VAR ("REPRO_SHARDS") is defined next to the sharded engine
# and re-exported here: shard count for `fast-sharded` (0 = one per core).


ENGINES: Dict[str, Type[BaseEngine]] = {
    "cycle": CycleEngine,
    "fast": FastCycleEngine,
    "live": LiveEngine,
    "event": EventEngine,
    "fast-event": FastEventEngine,
    "fast-sharded": ShardedCycleEngine,
}
"""Engines selectable by name.  ``cycle`` is the object-per-node reference
implementation; ``fast`` is the array-backed engine (byte-identical results
given the same seed, far faster at scale); ``live`` executes every exchange
over the in-process datagram transport of :mod:`repro.net` (byte-identical
to ``cycle``, for small-N validation of the deployment layer); ``event``
and ``fast-event`` run the asynchronous timer/latency/loss model --
byte-identical to *each other* for the same seed, with ``fast-event``
sustaining 10^4..10^5 nodes over the flat-array kernel.  The cycle family
and the event family are statistically comparable but follow different
execution models, so their overlays are not byte-equal across families.
``fast-sharded`` is a third execution family -- deterministic synchronous
BSP rounds over the same flat-array kernel, optionally partitioned across
``--shards`` worker processes through shared memory; its results are
identical for every shard count and backend, which is what makes one run
scalable toward N = 10^6 (see :mod:`repro.simulation.sharded`)."""

EVENT_ENGINE_NAMES = frozenset({"event", "fast-event"})
"""Registry names whose engines model per-message latency and loss."""

SHARDED_ENGINE_NAMES = frozenset({"fast-sharded"})
"""Registry names whose engines accept the ``shards`` knob."""


@dataclasses.dataclass(frozen=True)
class Scale:
    """Size parameters for one experiment run."""

    name: str
    n_nodes: int
    view_size: int
    cycles: int
    """The paper's 300-cycle horizon, scaled."""
    growth_cycles: int
    """Cycles over which the growing scenario adds nodes (paper: 100)."""
    runs: int
    """Repetitions for statistics (paper: 100)."""
    traced_nodes: int
    """Degree-traced nodes for Table 2 / Figure 5 (paper: 50)."""
    removal_repeats: int
    """Repetitions per removal fraction in Figure 6 (paper: 100)."""
    metrics_every: int
    """Record topology metrics every this many cycles."""
    clustering_sample: Optional[int]
    """Node sample for clustering estimates (None = exact)."""
    path_sources: Optional[int]
    """BFS sources for path-length estimates (None = exact)."""
    default_engine: str = "cycle"
    """Engine used at this scale unless overridden (``--engine`` /
    ``$REPRO_ENGINE``).  ``full`` defaults to ``fast``: the engines are
    byte-identical for the same seed, and only the array-backed engine
    makes the paper's true N = 10^4 practical out of the box."""

    default_workers: int = 1
    """Worker processes for multi-cell plan execution unless overridden
    (``--workers`` / ``$REPRO_WORKERS``).  ``0`` means one per CPU core;
    ``full`` defaults to that, so paper-scale sweeps use every core out
    of the box.  Parallel execution is byte-identical to serial (pinned
    by ``tests/workloads/test_parallel.py``), so the choice only affects
    wall clock, never numbers."""

    @property
    def growth_rate(self) -> int:
        """Joins per cycle in the growing scenario."""
        return max(1, -(-self.n_nodes // self.growth_cycles))  # ceil division

    def validate(self) -> "Scale":
        """Eagerly check field types and ranges; returns ``self``.

        The registry presets are authored here and trusted; this is the
        boundary check for *inline* scales arriving through an
        :class:`~repro.workloads.plan.ExperimentPlan` document, so a
        hand-written JSON scale fails at plan construction with a
        :class:`~repro.core.errors.ConfigurationError`, never mid-study.
        """

        def bad(field: str, expectation: str):
            value = getattr(self, field)
            return ConfigurationError(
                f"inline scale {self.name!r}: {field} must be "
                f"{expectation}, got {value!r}"
            )

        def check_int(field: str, minimum: int) -> None:
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise bad(field, "an integer")
            if value < minimum:
                raise bad(field, f">= {minimum}")

        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"inline scale name must be a non-empty string, got "
                f"{self.name!r}"
            )
        for field, minimum in (
            ("n_nodes", 1),
            ("view_size", 1),
            ("cycles", 1),
            ("growth_cycles", 1),
            ("runs", 1),
            ("traced_nodes", 0),
            ("removal_repeats", 1),
            ("metrics_every", 1),
            ("default_workers", 0),
        ):
            check_int(field, minimum)
        for field in ("clustering_sample", "path_sources"):
            if getattr(self, field) is not None:
                check_int(field, 1)
        if self.default_engine not in ENGINES:
            raise bad("default_engine", f"one of {sorted(ENGINES)}")
        return self


SCALES: Dict[str, Scale] = {
    # Scaled presets keep the paper's critical proportion for the growing
    # scenario: the join rate is ~3.3x the view size (paper: 100 joins per
    # cycle vs c = 30), which is what makes the contact node's view
    # overflow and the push-only protocols partition (Table 1).
    "quick": Scale(
        name="quick",
        n_nodes=500,
        view_size=12,
        cycles=90,
        growth_cycles=13,
        runs=8,
        traced_nodes=20,
        removal_repeats=10,
        metrics_every=3,
        clustering_sample=150,
        path_sources=25,
    ),
    "default": Scale(
        name="default",
        n_nodes=1000,
        view_size=15,
        cycles=150,
        growth_cycles=20,
        runs=20,
        traced_nodes=50,
        removal_repeats=30,
        metrics_every=5,
        clustering_sample=400,
        path_sources=40,
    ),
    "full": Scale(
        name="full",
        n_nodes=10_000,
        view_size=30,
        cycles=300,
        growth_cycles=100,
        runs=100,
        traced_nodes=50,
        removal_repeats=100,
        metrics_every=10,
        clustering_sample=1000,
        path_sources=50,
        default_engine="fast",
        default_workers=0,
    ),
}


def current_scale(name: Optional[str] = None) -> Scale:
    """Resolve a scale by explicit name, ``$REPRO_SCALE``, or ``quick``."""
    if name is None:
        name = os.environ.get(SCALE_ENV_VAR, "quick")
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {name!r}; choose from {sorted(SCALES)}"
        ) from None


def resolve_engine_name(
    name: Optional[str] = None, default: Optional[str] = None
) -> str:
    """Resolve an engine name: explicit > ``$REPRO_ENGINE`` > ``default``.

    Raises :class:`~repro.core.errors.ConfigurationError` -- listing the
    full registry -- for names outside :data:`ENGINES`, so a bad
    ``$REPRO_ENGINE`` fails eagerly instead of mid-experiment.
    """
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR) or default or "cycle"
    if name not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {name!r}; choose from {sorted(ENGINES)}"
        )
    return name


def resolve_workers(
    workers: Optional[int] = None, scales: Tuple[Scale, ...] = ()
) -> int:
    """Resolve the plan-execution worker count.

    Resolution order: explicit ``workers`` > ``$REPRO_WORKERS`` > the
    largest :attr:`Scale.default_workers` among ``scales`` > ``1``
    (serial).  ``0`` -- wherever it comes from -- means one worker per
    CPU core.  Anything that is not a non-negative integer raises
    :class:`~repro.core.errors.ConfigurationError` eagerly, so a typo'd
    environment value fails before any simulation starts.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR)
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"${WORKERS_ENV_VAR} must be an integer "
                    f"(0 = one per core), got {raw!r}"
                ) from None
    if workers is None and scales:
        # Expand the 0 = one-per-core sentinel *before* taking the max:
        # it is semantically the largest request but numerically the
        # smallest, so a mixed quick+full plan must not resolve serial.
        workers = max(
            scale.default_workers or (os.cpu_count() or 1)
            for scale in scales
        )
        if (os.cpu_count() or 1) == 1:
            # A scale-defaulted pool on a single core is pure overhead
            # (BENCH_run_plan records a 0.5x loss); fall back to the
            # in-process serial path.  An explicit `workers` argument or
            # $REPRO_WORKERS still wins -- the user asked for a pool.
            workers = 1
    if workers is None:
        workers = 1
    if (
        not isinstance(workers, int)
        or isinstance(workers, bool)
        or workers < 0
    ):
        raise ConfigurationError(
            f"workers must be a non-negative integer (0 = one per core), "
            f"got {workers!r}"
        )
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def engine_class(
    name: Optional[str] = None, default: Optional[str] = None
) -> Type[BaseEngine]:
    """Resolve an engine class (see :func:`resolve_engine_name`).

    ``default`` is how scale presets choose their engine (``full`` runs on
    ``fast`` out of the box); it falls back to ``cycle``.  Engines of the
    same family produce byte-identical results given the same seed, so
    the resolution order only affects speed, never numbers.
    """
    return ENGINES[resolve_engine_name(name, default)]


def _float_env(env_var: str) -> Optional[float]:
    raw = os.environ.get(env_var)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"${env_var} must be a number, got {raw!r}"
        ) from None


def _resolve_model(value, env_var, base, wrap, knob):
    """Normalize a latency/loss knob to a model instance (or ``None``).

    Accepts a ready-made model (any ``base`` instance), a finite number
    (wrapped with ``wrap``, whose constructor enforces its own range), or
    the ``env_var`` fallback; anything else is a
    :class:`~repro.core.errors.ConfigurationError`, never a ``TypeError``
    or a silent NaN from deep inside the model constructors.
    """
    if value is None:
        value = _float_env(env_var)
        if value is None:
            return None
    if isinstance(value, base):
        return value
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{knob} must be a number or a {base.__name__}, got {value!r}"
        ) from None
    if math.isnan(number) or math.isinf(number):
        # ConstantLatency's `delay < 0` check lets NaN slip through and
        # every message would be scheduled at time NaN, never delivered.
        raise ConfigurationError(
            f"{knob} must be a finite number, got {number!r}"
        )
    return wrap(number)


def resolve_message_models(
    latency: Optional[Union[float, LatencyModel]] = None,
    loss: Optional[Union[float, LossModel]] = None,
) -> Tuple[Optional[LatencyModel], Optional[LossModel]]:
    """Validate and resolve the latency/loss knobs (explicit or env).

    This is the single validation point shared by :func:`make_engine` and
    the runner's eager pre-flight check: numbers are range-checked by the
    model constructors (``ConstantLatency`` rejects negatives,
    ``BernoulliLoss`` rejects probabilities outside [0, 1]), NaN and
    infinities are rejected here, and malformed environment values raise
    with the variable name in the message.
    """
    return (
        _resolve_model(
            latency, LATENCY_ENV_VAR, LatencyModel, ConstantLatency, "latency"
        ),
        _resolve_model(loss, LOSS_ENV_VAR, LossModel, BernoulliLoss, "loss"),
    )


def make_engine(
    config: ProtocolConfig,
    seed: Optional[int] = None,
    engine: Optional[str] = None,
    rng: Optional[random.Random] = None,
    scale: Optional[Scale] = None,
    latency: Optional[Union[float, LatencyModel]] = None,
    loss: Optional[Union[float, LossModel]] = None,
    shards: Optional[int] = None,
    **kwargs: object,
) -> BaseEngine:
    """Instantiate the engine selected by ``engine`` / ``$REPRO_ENGINE``.

    When a ``scale`` is given, its :attr:`Scale.default_engine` is the
    fallback -- the way every experiment module runs, so ``full``-scale
    invocations pick the array-backed engine automatically.

    ``latency`` (constant per-message delay in gossip periods, or a
    ready-made :class:`~repro.simulation.network.LatencyModel`) and
    ``loss`` (per-message Bernoulli drop probability, or a
    :class:`~repro.simulation.network.LossModel`) -- or their
    environment fallbacks ``$REPRO_LATENCY`` / ``$REPRO_LOSS`` -- are
    forwarded to the event-driven engines.  The cycle family has no
    message timing model, so selecting them together with a cycle
    engine is a configuration error, not a silent no-op.

    ``shards`` (or ``$REPRO_SHARDS``; 0 = one per core) partitions a
    single run across worker processes and only applies to the
    ``fast-sharded`` engine -- requesting it with any other engine is
    likewise a configuration error, not a silent no-op.
    """
    name = resolve_engine_name(
        engine, default=scale.default_engine if scale else None
    )
    resolved_shards = resolve_shards(shards)
    if resolved_shards is not None:
        if name not in SHARDED_ENGINE_NAMES:
            raise ConfigurationError(
                f"shards only applies to the sharded engine "
                f"({sorted(SHARDED_ENGINE_NAMES)}); engine {name!r} runs "
                "single-process -- pick --engine fast-sharded or drop the "
                "option"
            )
        kwargs["shards"] = resolved_shards
    latency_model, loss_model = resolve_message_models(latency, loss)
    if latency_model is not None or loss_model is not None:
        if name not in EVENT_ENGINE_NAMES:
            knobs = ", ".join(
                k
                for k, v in (
                    ("latency", latency_model),
                    ("loss", loss_model),
                )
                if v is not None
            )
            raise ConfigurationError(
                f"{knobs} only applies to event-driven engines "
                f"({sorted(EVENT_ENGINE_NAMES)}); engine {name!r} runs the "
                "synchronous cycle model without message timing -- pick "
                "--engine event / fast-event or drop the option"
            )
        if latency_model is not None:
            kwargs["latency"] = latency_model
        if loss_model is not None:
            kwargs["loss"] = loss_model
    cls = ENGINES[name]
    return cls(config, seed=seed, rng=rng, **kwargs)  # type: ignore[call-arg]


# -- protocol sets, as the paper groups them ------------------------------------


def studied_protocols(view_size: int) -> Tuple[ProtocolConfig, ...]:
    """The eight instances of the main evaluation (paper Section 4.3)."""
    instances = []
    for ps in (PeerSelection.RAND, PeerSelection.TAIL):
        for vs in (ViewSelection.HEAD, ViewSelection.RAND):
            for vp in (Propagation.PUSH, Propagation.PUSHPULL):
                instances.append(ProtocolConfig(ps, vs, vp, view_size))
    return tuple(instances)


def push_protocols(view_size: int) -> Tuple[ProtocolConfig, ...]:
    """The four push-only instances of Table 1, in the paper's row order."""
    return (
        ProtocolConfig(
            PeerSelection.RAND, ViewSelection.HEAD, Propagation.PUSH, view_size
        ),
        ProtocolConfig(
            PeerSelection.RAND, ViewSelection.RAND, Propagation.PUSH, view_size
        ),
        ProtocolConfig(
            PeerSelection.TAIL, ViewSelection.HEAD, Propagation.PUSH, view_size
        ),
        ProtocolConfig(
            PeerSelection.TAIL, ViewSelection.RAND, Propagation.PUSH, view_size
        ),
    )


def growing_plot_protocols(view_size: int) -> Tuple[ProtocolConfig, ...]:
    """The six instances plotted in Figure 2 (the two unstable
    ``(*,head,push)`` ones are excluded there, as in the paper)."""
    labels = (
        "(rand,rand,push)",
        "(tail,rand,push)",
        "(rand,rand,pushpull)",
        "(tail,rand,pushpull)",
        "(rand,head,pushpull)",
        "(tail,head,pushpull)",
    )
    return tuple(
        ProtocolConfig.from_label(label, view_size) for label in labels
    )


def autocorrelation_protocols(view_size: int) -> Tuple[ProtocolConfig, ...]:
    """The four rand-peer-selection instances plotted in Figure 5."""
    labels = (
        "(rand,rand,push)",
        "(rand,rand,pushpull)",
        "(rand,head,push)",
        "(rand,head,pushpull)",
    )
    return tuple(
        ProtocolConfig.from_label(label, view_size) for label in labels
    )

