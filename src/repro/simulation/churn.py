"""Churn and failure injection.

Building blocks for the robustness experiments:

- :func:`massive_failure` -- crash a fraction of the population at once
  (paper Section 7, the 50% failure of Figure 7);
- :class:`CatastrophicFailure` -- the same as a scheduled observer;
- :class:`ContinuousChurn` -- steady join/leave per cycle (beyond the
  paper's scenarios, used by the churn example and extension benches);
- :class:`TemporaryPartition` -- a network split that later heals, the
  situation the paper's discussion (Section 8) warns quick self-healing
  protocols are vulnerable to.

These observers are the *mechanisms* behind the declarative workload
API: the event kinds ``catastrophic-failure``, ``continuous-churn`` and
``partition``/``heal`` of a :class:`~repro.workloads.spec.ScenarioSpec`
compile down to them (see :mod:`repro.workloads.runtime`; the
``churn-trace`` kind adds event-driven join/leave timelines on top).
Describe new workloads as specs; direct use remains supported for
custom engines and tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping

from repro.core.descriptor import Address
from repro.core.errors import ConfigurationError
from repro.simulation.base import BaseEngine
from repro.simulation.trace import Observer


def massive_failure(engine: BaseEngine, fraction: float) -> List[Address]:
    """Crash ``fraction`` of all live nodes, chosen uniformly at random.

    Returns the crashed addresses.  After the call, surviving views still
    hold descriptors of the victims -- the *dead links* whose decay the
    self-healing experiment measures.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
    count = int(round(len(engine) * fraction))
    return engine.crash_random_nodes(count)


class CatastrophicFailure(Observer):
    """Crash a fraction of all nodes at the start of a given cycle."""

    def __init__(self, at_cycle: int, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1]: {fraction}")
        self.at_cycle = at_cycle
        self.fraction = fraction
        self.victims: List[Address] = []
        self.fired = False

    def before_cycle(self, engine: BaseEngine) -> None:  # type: ignore[override]
        if not self.fired and engine.cycle >= self.at_cycle:
            self.victims = massive_failure(engine, self.fraction)
            self.fired = True


class ContinuousChurn(Observer):
    """Steady-state churn: a few joins and crashes at every cycle start.

    Joiners bootstrap from one uniformly random live node, keeping the
    population size roughly stable when ``joins_per_cycle`` equals
    ``leaves_per_cycle``.
    """

    def __init__(self, joins_per_cycle: int, leaves_per_cycle: int) -> None:
        if joins_per_cycle < 0 or leaves_per_cycle < 0:
            raise ConfigurationError("churn rates must be >= 0")
        self.joins_per_cycle = joins_per_cycle
        self.leaves_per_cycle = leaves_per_cycle
        self.total_joined = 0
        self.total_left = 0

    def before_cycle(self, engine: BaseEngine) -> None:  # type: ignore[override]
        leaves = min(self.leaves_per_cycle, max(0, len(engine) - 1))
        if leaves:
            engine.crash_random_nodes(leaves)
            self.total_left += leaves
        # One O(N) list per batch, not per join: add_node appends in
        # insertion order on every engine, so appending each joiner keeps
        # the list -- and hence every draw -- what addresses() would give.
        alive = engine.addresses()
        for _ in range(self.joins_per_cycle):
            if not alive:
                break
            contact = engine.rng.choice(alive)
            alive.append(engine.add_node(contacts=[contact]))
            self.total_joined += 1


class SameGroup:
    """Reachability predicate of a partition: same group, or unassigned.

    ``groups`` maps an address to its group label as of the moment the
    partition opened.  An address it does not name -- a node that joined
    inside the window -- is unconstrained: it reaches, and is reached
    from, every side.  The mapping must not change while installed: the
    flat engines read it once per install and run it as data in the C
    core (:meth:`~repro.simulation.arrayviews.FlatArrayEngine._backend`).
    """

    def __init__(self, groups: Mapping[Address, Hashable]) -> None:
        self.groups = groups

    def __call__(self, sender: Address, recipient: Address) -> bool:
        group_a = self.groups.get(sender)
        group_b = self.groups.get(recipient)
        return group_a is None or group_b is None or group_a == group_b


class TemporaryPartition(Observer):
    """Split the network into groups between two cycles, then heal it.

    At ``start_cycle`` every live node is assigned to one of ``n_groups``
    groups (round-robin over a shuffled order); messages across groups are
    dropped until ``end_cycle`` by the :class:`SameGroup` predicate this
    observer installs as ``engine.reachable`` -- nodes joining during the
    partition belong to no group and exchange with every side.

    The paper's discussion (Section 8) notes that with *head* view
    selection "all partitions will forget about each other very quickly",
    so quick self-healing becomes a disadvantage -- the partition ablation
    bench reproduces exactly that.
    """

    def __init__(
        self, start_cycle: int, end_cycle: int, n_groups: int = 2
    ) -> None:
        if end_cycle <= start_cycle:
            raise ConfigurationError(
                f"end_cycle ({end_cycle}) must be > start_cycle ({start_cycle})"
            )
        if n_groups < 2:
            raise ConfigurationError(f"need >= 2 groups, got {n_groups}")
        self.start_cycle = start_cycle
        self.end_cycle = end_cycle
        self.n_groups = n_groups
        self.groups: Dict[Address, int] = {}
        self.active = False

    def _assign(self, engine: BaseEngine) -> None:
        addresses = engine.addresses()
        engine.rng.shuffle(addresses)
        self.groups = {
            address: index % self.n_groups
            for index, address in enumerate(addresses)
        }

    def before_cycle(self, engine: BaseEngine) -> None:  # type: ignore[override]
        if not self.active and self.start_cycle <= engine.cycle < self.end_cycle:
            self._assign(engine)
            engine.reachable = SameGroup(self.groups)
            self.active = True
        elif self.active and engine.cycle >= self.end_cycle:
            engine.reachable = None
            self.active = False

    def group_members(self, engine: BaseEngine, group: int) -> List[Address]:
        """Live members of ``group`` (valid during or after the partition)."""
        return [
            address
            for address in engine.addresses()
            if self.groups.get(address) == group
        ]


def dead_link_fraction(engine: BaseEngine) -> float:
    """Fraction of all view entries that point at dead nodes."""
    total = sum(engine.view_sizes())
    if total == 0:
        return 0.0
    return engine.dead_link_count() / total
