"""Declarative scenario specifications: one workload spec, every engine.

A :class:`ScenarioSpec` is a serializable description of *what happens to
the overlay* while a protocol runs -- how the population is bootstrapped
and a typed schedule of membership/network events -- independent of which
executor runs it.  The runtime (:mod:`repro.workloads.runtime`) compiles
a spec into the right observers and run-loop hooks for any engine of the
registry (``cycle``, ``fast``, ``event``, ``fast-event``, ``live``), so
the same JSON document drives the object-per-node reference engine, the
flat-array engines and the wire-level live engine.

The vocabulary covers the paper's scenarios and the ROADMAP follow-ups:

==================== ==========================================================
event kind           meaning
==================== ==========================================================
``grow``             the growing overlay of Section 5.1: joiners arrive in
                     batches at cycle starts, knowing only the oldest node
                     (``empty`` bootstrap only)
``catastrophic-      crash a fraction of all nodes at the start of one cycle
failure``            (Section 7 / Figure 7)
``continuous-churn`` steady join/leave batches at every cycle start
``churn-trace``      an event-driven churn trace: Poisson arrivals whose
                     sessions have exponentially distributed lengths; on the
                     event engines each join/leave executes at its exact
                     simulated time (sub-cycle), on the cycle engines it is
                     quantized to the enclosing cycle start
``partition``        split the network into groups (messages across groups
                     are dropped) until the matching ``heal``
``heal``             end the most recent open ``partition``
==================== ==========================================================

All parameters are validated eagerly at construction (and therefore at
:meth:`ScenarioSpec.from_json` time), mirroring the experiment runner's
eager engine validation: a typo'd event kind or an out-of-range fraction
raises :class:`~repro.core.errors.ConfigurationError` before any
simulation starts.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from repro.core.errors import ConfigurationError

__all__ = [
    "ADVERSARY_KINDS",
    "BOOTSTRAP_KINDS",
    "EVENT_KINDS",
    "AdversarySpec",
    "CatastrophicFailure",
    "ChurnTrace",
    "ContinuousChurn",
    "Grow",
    "Heal",
    "Partition",
    "ScenarioSpec",
    "ScenarioEvent",
]

BOOTSTRAP_KINDS = ("random", "lattice", "empty")
"""How the initial population is created before the schedule runs:
``random`` and ``lattice`` are the paper's Section 5.2/5.3 initial
topologies (``n_nodes`` views filled immediately); ``empty`` starts with
no nodes at all -- the ``grow`` event then builds the overlay (Section
5.1).  ``grow`` is valid on the ``empty`` bootstrap only."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _check_int(value: Any, name: str, minimum: int = 0) -> None:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer, got {value!r}",
    )
    _require(value >= minimum, f"{name} must be >= {minimum}, got {value}")


def _check_number(
    value: Any,
    name: str,
    minimum: float = 0.0,
    maximum: Optional[float] = None,
    strict_min: bool = False,
) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{name} must be a number, got {value!r}",
    )
    _require(
        math.isfinite(value), f"{name} must be finite, got {value!r}"
    )
    if strict_min:
        _require(value > minimum, f"{name} must be > {minimum}, got {value}")
    else:
        _require(value >= minimum, f"{name} must be >= {minimum}, got {value}")
    if maximum is not None:
        _require(
            value <= maximum, f"{name} must be <= {maximum}, got {value}"
        )


@dataclasses.dataclass(frozen=True)
class ScenarioEvent:
    """Base class of schedule events; every subclass declares ``kind``."""

    kind = ""  # overridden per subclass

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping, ``kind`` first, ``None`` fields omitted."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not None:
                payload[field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioEvent":
        """Build the event named by ``payload['kind']``, eagerly validated."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"event must be a mapping, got {payload!r}"
            )
        kind = payload.get("kind")
        event_cls = EVENT_KINDS.get(kind)  # type: ignore[arg-type]
        if event_cls is None:
            raise ConfigurationError(
                f"unknown event kind {kind!r}; choose from "
                f"{sorted(EVENT_KINDS)}"
            )
        names = {field.name for field in dataclasses.fields(event_cls)}
        unknown = sorted(set(payload) - names - {"kind"})
        if unknown:
            raise ConfigurationError(
                f"unknown field(s) {unknown} for event kind {kind!r}; "
                f"valid fields: {sorted(names)}"
            )
        kwargs = {key: payload[key] for key in payload if key != "kind"}
        return event_cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class Grow(ScenarioEvent):
    """Grow the overlay from a single node (paper Section 5.1).

    Valid only on an ``empty`` bootstrap (the spec rejects it otherwise).
    ``target`` and ``per_cycle`` default (``None``) to the run's node
    count and the scale's growth rate, so the same spec reproduces the
    paper's proportions at any scale.
    """

    kind = "grow"

    target: Optional[int] = None
    per_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.target is not None:
            _check_int(self.target, "grow.target", minimum=1)
        if self.per_cycle is not None:
            _check_int(self.per_cycle, "grow.per_cycle", minimum=1)


@dataclasses.dataclass(frozen=True)
class CatastrophicFailure(ScenarioEvent):
    """Crash ``fraction`` of all nodes at the start of cycle ``at_cycle``."""

    kind = "catastrophic-failure"

    at_cycle: int = 0
    fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_int(self.at_cycle, "catastrophic-failure.at_cycle")
        _check_number(
            self.fraction, "catastrophic-failure.fraction", 0.0, 1.0
        )


@dataclasses.dataclass(frozen=True)
class ContinuousChurn(ScenarioEvent):
    """Steady batch churn: joins/leaves at the start of every cycle."""

    kind = "continuous-churn"

    joins_per_cycle: int = 0
    leaves_per_cycle: int = 0

    def __post_init__(self) -> None:
        _check_int(self.joins_per_cycle, "continuous-churn.joins_per_cycle")
        _check_int(self.leaves_per_cycle, "continuous-churn.leaves_per_cycle")
        _require(
            self.joins_per_cycle > 0 or self.leaves_per_cycle > 0,
            "continuous-churn needs joins_per_cycle > 0 or "
            "leaves_per_cycle > 0",
        )


@dataclasses.dataclass(frozen=True)
class ChurnTrace(ScenarioEvent):
    """An event-driven churn trace with exponential session lengths.

    Joiners arrive as a Poisson process of ``rate`` arrivals per gossip
    period between ``start_cycle`` and ``end_cycle`` (``None`` = the end
    of the run); each joiner bootstraps from one uniformly random live
    node and stays for an ``Exponential(session_length)`` duration, after
    which it crashes (if the run is still going).  The arrival/departure
    times are generated from the dedicated ``trace_seed`` -- the same
    trace is *replayed* identically on every engine and for every run
    seed, like a recorded availability trace would be.

    On the event-driven engines every join and leave executes at its
    exact simulated time (the runtime slices ``run_time`` around the
    trace); the cycle-driven engines quantize each event to the start of
    its enclosing cycle.
    """

    kind = "churn-trace"

    rate: float = 1.0
    session_length: float = 10.0
    start_cycle: int = 0
    end_cycle: Optional[int] = None
    trace_seed: int = 0

    def __post_init__(self) -> None:
        _check_number(self.rate, "churn-trace.rate", 0.0)
        _check_number(
            self.session_length,
            "churn-trace.session_length",
            0.0,
            strict_min=True,
        )
        _check_int(self.start_cycle, "churn-trace.start_cycle")
        if self.end_cycle is not None:
            _check_int(self.end_cycle, "churn-trace.end_cycle")
            _require(
                self.end_cycle > self.start_cycle,
                f"churn-trace.end_cycle ({self.end_cycle}) must be > "
                f"start_cycle ({self.start_cycle})",
            )
        _check_int(self.trace_seed, "churn-trace.trace_seed")


@dataclasses.dataclass(frozen=True)
class Partition(ScenarioEvent):
    """Split the network into ``n_groups`` at the start of ``at_cycle``.

    Must be closed by a later :class:`Heal` event; a spec whose partition
    never heals is rejected eagerly (run the heal at the final cycle to
    express "partitioned to the end").
    """

    kind = "partition"

    at_cycle: int = 0
    n_groups: int = 2

    def __post_init__(self) -> None:
        _check_int(self.at_cycle, "partition.at_cycle")
        _check_int(self.n_groups, "partition.n_groups", minimum=2)


@dataclasses.dataclass(frozen=True)
class Heal(ScenarioEvent):
    """Heal the most recent open partition at the start of ``at_cycle``."""

    kind = "heal"

    at_cycle: int = 0

    def __post_init__(self) -> None:
        _check_int(self.at_cycle, "heal.at_cycle")


EVENT_KINDS: Dict[str, Type[ScenarioEvent]] = {
    cls.kind: cls
    for cls in (
        Grow,
        CatastrophicFailure,
        ContinuousChurn,
        ChurnTrace,
        Partition,
        Heal,
    )
}
"""Registry of schedule event kinds, keyed by their wire name."""


ADVERSARY_KINDS = ("hub", "eclipse", "tamper", "drop")
"""Byzantine behaviors :mod:`repro.adversary` can inject: ``hub``
(over-advertise the attacker with fresh timestamps in every exchange),
``eclipse`` (answer a victim set's pulls with attacker-only
descriptors), ``tamper`` (zero the timestamps of honestly exchanged
buffers) and ``drop`` (silently swallow exchanged buffers)."""


_ADVERSARY_FIELDS = (
    "kind",
    "fraction",
    "attackers",
    "victims",
    "start_cycle",
    "stop_cycle",
    "placement_seed",
)


@dataclasses.dataclass(frozen=True)
class AdversarySpec:
    """The ``adversary`` block of a scenario: who misbehaves, how, when.

    Attackers are either a seeded ``fraction`` of the bootstrap
    population (placed deterministically from ``placement_seed``,
    independent of engine and run seed) or an explicit tuple of
    bootstrap indices -- the two are mutually exclusive.  ``victims``
    (bootstrap indices, eclipse only) name the nodes whose pulls are
    answered with attacker-only descriptors.  The attack is active for
    cycles ``start_cycle <= cycle < stop_cycle`` (``stop_cycle=None`` =
    to the end of the run); outside the window attackers behave
    honestly, so a demo can show the healer flushing the poison out.

    A ``fraction`` of 0.0 with no explicit attackers is a valid no-op:
    the run is byte-identical to the same spec without an adversary
    block, which keeps ``f = 0`` sweep cells honest baselines.
    """

    kind: str = "hub"
    fraction: float = 0.0
    attackers: Tuple[int, ...] = ()
    victims: Tuple[int, ...] = ()
    start_cycle: int = 0
    stop_cycle: Optional[int] = None
    placement_seed: int = 0

    def __post_init__(self) -> None:
        _require(
            self.kind in ADVERSARY_KINDS,
            f"unknown adversary kind {self.kind!r}; choose from "
            f"{list(ADVERSARY_KINDS)}",
        )
        _check_number(self.fraction, "adversary.fraction", 0.0, 1.0)
        object.__setattr__(self, "attackers", tuple(self.attackers))
        object.__setattr__(self, "victims", tuple(self.victims))
        for index in self.attackers:
            _check_int(index, "adversary.attackers entries")
        for index in self.victims:
            _check_int(index, "adversary.victims entries")
        _require(
            len(set(self.attackers)) == len(self.attackers),
            f"adversary.attackers contains duplicates: {self.attackers}",
        )
        _require(
            len(set(self.victims)) == len(self.victims),
            f"adversary.victims contains duplicates: {self.victims}",
        )
        _require(
            not (self.fraction > 0.0 and self.attackers),
            "adversary.fraction and adversary.attackers are mutually "
            "exclusive; give a seeded fraction or explicit indices, "
            "not both",
        )
        overlap = sorted(set(self.attackers) & set(self.victims))
        _require(
            not overlap,
            f"adversary.victims overlap the attackers at indices {overlap}",
        )
        if self.kind == "eclipse":
            _require(
                bool(self.victims),
                "an 'eclipse' adversary needs a non-empty victims tuple",
            )
        else:
            _require(
                not self.victims,
                f"adversary.victims only applies to kind 'eclipse', "
                f"got kind {self.kind!r}",
            )
        _check_int(self.start_cycle, "adversary.start_cycle")
        if self.stop_cycle is not None:
            _check_int(self.stop_cycle, "adversary.stop_cycle")
            _require(
                self.stop_cycle > self.start_cycle,
                f"adversary.stop_cycle ({self.stop_cycle}) must be > "
                f"start_cycle ({self.start_cycle})",
            )
        _check_int(self.placement_seed, "adversary.placement_seed")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (``None``/empty fields omitted)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.fraction:
            payload["fraction"] = self.fraction
        if self.attackers:
            payload["attackers"] = list(self.attackers)
        if self.victims:
            payload["victims"] = list(self.victims)
        if self.start_cycle:
            payload["start_cycle"] = self.start_cycle
        if self.stop_cycle is not None:
            payload["stop_cycle"] = self.stop_cycle
        if self.placement_seed:
            payload["placement_seed"] = self.placement_seed
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AdversarySpec":
        """Parse a mapping; unknown keys raise eagerly."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"adversary block must be a mapping, got {payload!r}"
            )
        unknown = sorted(set(payload) - set(_ADVERSARY_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown adversary field(s) {unknown}; valid fields: "
                f"{sorted(_ADVERSARY_FIELDS)}"
            )
        kwargs: Dict[str, Any] = dict(payload)
        for key in ("attackers", "victims"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ConfigurationError(
                        f"adversary.{key} must be a list, got "
                        f"{kwargs[key]!r}"
                    )
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def replace(self, **changes: Any) -> "AdversarySpec":
        """A copy of this block with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


_SPEC_FIELDS = (
    "name",
    "bootstrap",
    "events",
    "cycles",
    "view_fill",
    "latency",
    "loss",
    "adversary",
    "description",
)


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, serializable workload description.

    Parameters
    ----------
    name:
        Identifier used in reports and the scenario registry.
    bootstrap:
        One of :data:`BOOTSTRAP_KINDS`.
    events:
        The typed schedule (any :class:`ScenarioEvent` subclasses).
    cycles:
        Run length in gossip cycles; ``None`` defers to the scale preset.
    view_fill:
        Bootstrap view fill level; ``None`` = the view capacity.
    latency / loss:
        Constant per-message latency (in gossip periods) and Bernoulli
        loss probability.  Only the event-driven engines model message
        timing, so compiling a spec that sets these for a cycle-family
        engine is a :class:`~repro.core.errors.ConfigurationError` --
        the same eager rule the experiment runner applies to its
        ``--latency`` / ``--loss`` flags.
    adversary:
        Optional :class:`AdversarySpec` Byzantine block: a deterministic
        subset of the bootstrap population misbehaves (hub poisoning,
        eclipse, tampering, dropping) for a window of cycles.  Placement
        indices are defined over the bootstrap population, so an
        ``empty`` bootstrap cannot carry an adversary block.  Supported
        by the cycle-family engines (``cycle``, ``fast``, ``live``).
    description:
        Optional human-readable summary (shown by ``list-scenarios``).
    """

    name: str = "scenario"
    bootstrap: str = "random"
    events: Tuple[ScenarioEvent, ...] = ()
    cycles: Optional[int] = None
    view_fill: Optional[int] = None
    latency: Optional[float] = None
    loss: Optional[float] = None
    adversary: Optional[AdversarySpec] = None
    description: Optional[str] = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"scenario name must be a non-empty string, got {self.name!r}",
        )
        _require(
            self.bootstrap in BOOTSTRAP_KINDS,
            f"unknown bootstrap kind {self.bootstrap!r}; choose from "
            f"{list(BOOTSTRAP_KINDS)}",
        )
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            _require(
                isinstance(event, ScenarioEvent),
                f"events must be ScenarioEvent instances, got {event!r}",
            )
        if self.cycles is not None:
            _check_int(self.cycles, "cycles", minimum=1)
        if self.view_fill is not None:
            _check_int(self.view_fill, "view_fill", minimum=1)
        if self.latency is not None:
            _check_number(self.latency, "latency", 0.0)
        if self.loss is not None:
            _check_number(self.loss, "loss", 0.0, 1.0)
        if self.adversary is not None:
            _require(
                isinstance(self.adversary, AdversarySpec),
                f"adversary must be an AdversarySpec, got {self.adversary!r}",
            )
            _require(
                self.bootstrap != "empty",
                "an adversary block places attackers over the bootstrap "
                "population; an 'empty' bootstrap has none",
            )
        self._check_partitions()
        grows = any(isinstance(e, Grow) for e in self.events)
        if self.bootstrap == "empty":
            _require(
                grows,
                "an 'empty' bootstrap needs a 'grow' event to ever "
                "populate the overlay",
            )
        else:
            # A grow event boots its own isolated oldest node, so on a
            # populated bootstrap it would build a second, disjoint
            # overlay beside the first.
            _require(
                not grows,
                f"a 'grow' event builds the overlay from one node and needs "
                f"an 'empty' bootstrap, not {self.bootstrap!r}",
            )

    def _check_partitions(self) -> None:
        """Partitions must nest properly: every ``partition`` is closed by
        exactly one later ``heal``, and splits never overlap."""
        open_at: Optional[int] = None
        timeline = sorted(
            (e for e in self.events if isinstance(e, (Partition, Heal))),
            key=lambda e: (e.at_cycle, isinstance(e, Partition)),
        )
        for event in timeline:
            if isinstance(event, Partition):
                _require(
                    open_at is None,
                    f"partition at cycle {event.at_cycle} overlaps the "
                    f"unhealed partition from cycle {open_at}",
                )
                open_at = event.at_cycle
            else:
                _require(
                    open_at is not None,
                    f"heal at cycle {event.at_cycle} has no preceding "
                    "partition",
                )
                _require(
                    event.at_cycle > open_at,  # type: ignore[operator]
                    f"heal at cycle {event.at_cycle} must come after its "
                    f"partition (cycle {open_at})",
                )
                open_at = None
        _require(
            open_at is None,
            f"partition at cycle {open_at} is never healed; add a 'heal' "
            "event (at the final cycle to stay split to the end)",
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (``None`` fields omitted, events inline)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "bootstrap": self.bootstrap,
            "events": [event.to_dict() for event in self.events],
        }
        for key in ("cycles", "view_fill", "latency", "loss", "description"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.adversary is not None:
            payload["adversary"] = self.adversary.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse a mapping; unknown keys and event kinds raise eagerly."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"scenario spec must be a mapping, got {payload!r}"
            )
        unknown = sorted(set(payload) - set(_SPEC_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s) {unknown}; valid fields: "
                f"{sorted(_SPEC_FIELDS)}"
            )
        raw_events = payload.get("events", [])
        if not isinstance(raw_events, (list, tuple)):
            raise ConfigurationError(
                f"'events' must be a list, got {raw_events!r}"
            )
        events = tuple(ScenarioEvent.from_dict(e) for e in raw_events)
        kwargs = {
            key: payload[key]
            for key in _SPEC_FIELDS
            if key not in ("events", "adversary") and key in payload
        }
        adversary = None
        if payload.get("adversary") is not None:
            adversary = AdversarySpec.from_dict(payload["adversary"])
        return cls(events=events, adversary=adversary, **kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "ScenarioSpec":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"scenario spec is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(payload)

    # -- convenience -------------------------------------------------------

    def events_of(self, kind: Type[ScenarioEvent]) -> List[ScenarioEvent]:
        """All schedule events of one kind, in declaration order."""
        return [event for event in self.events if isinstance(event, kind)]

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
