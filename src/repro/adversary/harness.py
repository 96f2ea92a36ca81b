"""Attacker placement and per-engine attack installation.

:func:`install_adversary` binds a compiled scenario's
:class:`~repro.workloads.spec.AdversarySpec` to its engine:

- attacker/victim placement is resolved against the bootstrap population
  -- explicit spec indices, or a seeded sample of ``fraction * n`` nodes
  drawn from a *private* ``Random(placement_seed)`` so the placement is
  identical on every engine and run seed and never perturbs the shared
  protocol RNG;
- on :class:`~repro.simulation.engine.CycleEngine`,
  :class:`~repro.simulation.event_engine.EventEngine` and
  :class:`~repro.net.engine.LiveEngine`, attacker nodes are wrapped in
  :class:`~repro.adversary.behaviors.AdversarialNode` (on the live
  engine the wrapper is installed into the daemon too, so both the
  active task and the datagram receive path go through it; the event
  engine resolves every timer/request/reply through its node table, so
  wrapping the table entry covers all three dispatch paths);
- on :class:`~repro.simulation.fast.FastCycleEngine` and
  :class:`~repro.simulation.fast_event.FastEventEngine` -- which have no
  per-node objects to wrap -- one :class:`IndexedAdversary` is installed
  as the engine's ``adversary``: three hooks (retarget, rewrite, drop)
  on the flat-array kernel's exchange steps.  The engines run those
  Python steps with the hooks while the attack window is open and their
  honest backends, C core included, whenever it is closed; there is no
  adversarial copy of either engine's loop.

:class:`NetworkInterceptor` (via :func:`intercept_network`) is the
wire-level alternative for the live layer: it hooks
:meth:`~repro.net.transport.LoopbackNetwork.deliver` and rewrites or
drops attacker-sent *datagrams* (decode, forge, re-encode in the same
wire version), demonstrating that the attacks need no cooperation from
the node software at all.  The engine installers use node wrapping
because it preserves cross-engine byte-identity; the interceptor is for
transport-focused tests and demos.
"""

from __future__ import annotations

import dataclasses
import random
from struct import error as struct_error
from typing import List, Tuple

from repro.adversary.behaviors import AdversarialNode, AdversaryState
from repro.core.codec import CodecError, decode_frame, encode_message
from repro.core.descriptor import Address, NodeDescriptor
from repro.core.errors import ConfigurationError
from repro.net.daemon import _ENVELOPE, _KIND_REPLY
from repro.net.engine import LiveEngine
from repro.net.transport import LoopbackNetwork
from repro.simulation.arrayviews import FlatArrayEngine
from repro.simulation.engine import CycleEngine
from repro.simulation.event_engine import EventEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.trace import Observer
from repro.workloads.spec import AdversarySpec

__all__ = [
    "ADVERSARY_ENGINE_NAMES",
    "AdversaryHandle",
    "AttackWindow",
    "IndexedAdversary",
    "NetworkInterceptor",
    "install_adversary",
    "intercept_network",
    "place_attackers",
]

ADVERSARY_ENGINE_NAMES = frozenset(
    {"cycle", "fast", "live", "event", "fast-event"}
)
"""Registry engines adversarial scenarios can run on: the cycle-model
family plus the event-driven family (the sharded engine has no attack
installation)."""


def place_attackers(
    spec: AdversarySpec, addresses: List[Address]
) -> Tuple[Tuple[Address, ...], Tuple[Address, ...]]:
    """Resolve ``(attackers, victims)`` over the bootstrap population.

    Spec indices index into ``addresses`` (the bootstrap creation
    order).  A ``fraction`` placement samples ``round(fraction * n)``
    non-victim nodes from ``Random(placement_seed)`` -- deterministic,
    engine-independent, and independent of the run seed.
    """
    n = len(addresses)

    def resolve(indices, field: str) -> Tuple[Address, ...]:
        resolved = []
        for index in indices:
            if not 0 <= index < n:
                raise ConfigurationError(
                    f"adversary.{field} index {index} is out of range for "
                    f"a bootstrap population of {n} nodes"
                )
            resolved.append(addresses[index])
        return tuple(resolved)

    victims = resolve(spec.victims, "victims")
    if spec.attackers:
        return resolve(spec.attackers, "attackers"), victims
    count = int(round(spec.fraction * n))
    if count == 0:
        return (), victims
    victim_set = set(victims)
    eligible = [a for a in addresses if a not in victim_set]
    if count > len(eligible):
        raise ConfigurationError(
            f"adversary.fraction {spec.fraction} asks for {count} "
            f"attackers but only {len(eligible)} non-victim nodes exist"
        )
    placement = random.Random(spec.placement_seed)
    return tuple(placement.sample(eligible, count)), victims


class AttackWindow(Observer):
    """Flips the shared :attr:`AdversaryState.active` flag per cycle.

    The attack is live for cycles ``start_cycle <= cycle < stop_cycle``
    (open-ended when ``stop_cycle`` is ``None``)."""

    def __init__(self, state: AdversaryState) -> None:
        self._state = state

    def before_cycle(self, engine) -> None:
        spec = self._state.spec
        cycle = engine.cycle
        self._state.active = cycle >= spec.start_cycle and (
            spec.stop_cycle is None or cycle < spec.stop_cycle
        )


@dataclasses.dataclass(frozen=True)
class AdversaryHandle:
    """What :func:`install_adversary` resolved: placement plus state."""

    spec: AdversarySpec
    attackers: Tuple[Address, ...]
    victims: Tuple[Address, ...]
    state: AdversaryState


def _view_capacity(engine) -> int:
    """The engine's view capacity (generic config or first node's view)."""
    config = getattr(engine, "config", None)
    if config is not None:
        return config.view_size
    for node in engine.nodes():
        return node.view.capacity
    raise ConfigurationError(
        "cannot determine the view capacity of an empty engine"
    )


def install_adversary(runtime) -> AdversaryHandle:
    """Place the attackers of ``runtime.spec.adversary`` and arm them.

    Called by :func:`~repro.workloads.runtime.compile_scenario` right
    after the bootstrap.  A placement that resolves to zero attackers
    (``fraction=0``) installs nothing at all, so the run stays
    byte-identical to the same spec without an adversary block.
    """
    spec = runtime.spec.adversary
    engine = runtime.engine
    addresses = runtime.bootstrap_addresses
    attackers, victims = place_attackers(spec, addresses)
    state = AdversaryState(
        spec,
        attackers,
        victims,
        rng=engine.rng,
        is_alive=engine.is_alive,
        view_size=_view_capacity(engine),
    )
    handle = AdversaryHandle(
        spec=spec, attackers=attackers, victims=victims, state=state
    )
    if not attackers:
        return handle
    engine.add_observer(AttackWindow(state))
    # The event engines fire their first before_cycle at boundary 1, so
    # the window flag for cycle 0 must be primed here; on the cycle
    # engines the observer overwrites it with the same value at cycle 0.
    state.active = spec.start_cycle <= 0 and (
        spec.stop_cycle is None or 0 < spec.stop_cycle
    )
    if isinstance(engine, (FastCycleEngine, FastEventEngine)):
        engine.adversary = IndexedAdversary(engine, state)
    elif isinstance(engine, LiveEngine):
        for address in attackers:
            wrapper = AdversarialNode(engine._nodes[address], state)
            engine._nodes[address] = wrapper
            # Both paths must see the wrapper: the engine's gossip round
            # reads daemon.node (active thread) and so does the
            # datagram receive callback (passive thread).
            engine.daemon(address).node = wrapper
    elif isinstance(engine, (CycleEngine, EventEngine)):
        # Both object engines resolve every dispatch (cycle iteration;
        # timer/request/reply delivery) through the node table, so
        # swapping the table entry covers all paths.
        for address in attackers:
            engine._nodes[address] = AdversarialNode(
                engine._nodes[address], state
            )
    else:
        raise ConfigurationError(
            f"adversarial scenarios run on the "
            f"{sorted(ADVERSARY_ENGINE_NAMES)} engines; "
            f"got {type(engine).__name__}"
        )
    return handle


class IndexedAdversary:
    """The attack as hooks on the flat-array exchange steps.

    ``FlatArrayEngine.select`` / ``payload`` / ``receive`` consult this
    object for the node ids in :attr:`attackers` -- and only while the
    attack window is open (the engines pass ``None`` otherwise) -- at
    the three points :class:`AdversarialNode` intercepts on the object
    engines.  Parity rules, one per hook:

    - :meth:`retarget` runs after an attacker's honest selection
      succeeded (same draws); the eclipse retarget is one *extra* draw,
      taken only when a live victim exists;
    - :meth:`rewrite` forges what leaves an attacker: a poisoned or
      tampered buffer carries every hop count at 1 (sent as 0,
      incremented once by the receiver), so its merge consumes exactly
      the draws the reference merge consumes; a withheld buffer is
      empty, which still ships (the initiator's exchange completes) and
      merges to a draw-free no-op;
    - :attr:`drops` makes a withholding attacker discard what it
      receives unmerged -- the pushed request and the pulled reply alike.
    """

    __slots__ = ("_state", "_alive", "attackers", "_victims",
                 "_victim_set", "_adverts")

    def __init__(self, engine: FlatArrayEngine, state: AdversaryState) -> None:
        self._state = state
        self._alive = engine._alive
        id_of = engine._id_of
        attacker_ids = [id_of[a] for a in state.attackers]
        self.attackers = frozenset(attacker_ids)
        self._victims = tuple(id_of[v] for v in state.victims)
        self._victim_set = frozenset(self._victims)
        cap = state.view_size + 1  # an honest buffer's size, like poison_payload
        self._adverts = {
            i: ([i] + [b for b in attacker_ids if b != i])[:cap]
            for i in attacker_ids
        }

    @property
    def active(self) -> bool:
        """Whether the attack window is currently open."""
        return self._state.active

    @property
    def drops(self) -> bool:
        """Whether attackers discard the buffers they are handed."""
        return self._state.spec.kind == "drop"

    def retarget(self, peer: int, draw) -> int:
        """The peer an attacker really contacts after selecting ``peer``."""
        if self._state.spec.kind == "eclipse":
            alive = self._alive
            live = [v for v in self._victims if alive[v]]
            if live:
                return live[draw(len(live))]
        return peer

    def rewrite(self, sender: int, receiver: int, ids, hops, reply: bool):
        """The ``(ids, hops)`` that actually leave attacker ``sender``."""
        kind = self._state.spec.kind
        if kind == "drop":
            return [], []
        if kind == "tamper":
            return ids, [1] * len(ids)
        if kind == "eclipse" and reply and receiver not in self._victim_set:
            return ids, hops  # answering a non-victim: stay honest
        ids = list(self._adverts[sender])
        return ids, [1] * len(ids)


class NetworkInterceptor:
    """A man-in-the-middle on a :class:`LoopbackNetwork`.

    Rewrites (or swallows) datagrams *sent by attackers* while the
    attack window is active: the codec frame is decoded, forged
    according to the spec kind, and re-encoded in the wire version it
    arrived in; unparsable data passes through untouched.  Install via
    :func:`intercept_network`, remove with :meth:`uninstall`.
    """

    def __init__(self, network: LoopbackNetwork, state: AdversaryState) -> None:
        self.network = network
        self.state = state
        self.forwarded = 0
        self.rewritten = 0
        self.dropped = 0
        self._original = network.deliver
        network.deliver = self.deliver  # type: ignore[method-assign]

    def uninstall(self) -> None:
        """Restore the network's own ``deliver`` (idempotent)."""
        try:
            del self.network.deliver  # type: ignore[attr-defined]
        except AttributeError:
            pass

    def deliver(
        self, sender: Address, destination: Address, data: bytes
    ) -> None:
        state = self.state
        if not state.active or sender not in state.attacker_set:
            self.forwarded += 1
            return self._original(sender, destination, data)
        kind = state.spec.kind
        if kind == "drop":
            self.dropped += 1
            return None
        try:
            kind_byte, exchange_id = _ENVELOPE.unpack_from(data, 0)
            version, payload = decode_frame(bytes(data[_ENVELOPE.size:]))
        except (CodecError, struct_error):
            # Not a gossip frame (or truncated): forward untouched.
            self.forwarded += 1
            return self._original(sender, destination, data)
        if kind == "tamper":
            payload = [NodeDescriptor(d.address, 0) for d in payload]
        elif kind == "hub":
            payload = state.poison_payload(sender)
        else:  # eclipse: only replies to victims are forged
            if kind_byte != _KIND_REPLY or destination not in state.victim_set:
                self.forwarded += 1
                return self._original(sender, destination, data)
            payload = state.poison_payload(sender)
        self.rewritten += 1
        frame = _ENVELOPE.pack(kind_byte, exchange_id) + encode_message(
            payload, version=version
        )
        return self._original(sender, destination, frame)


def intercept_network(
    network: LoopbackNetwork, state: AdversaryState
) -> NetworkInterceptor:
    """Install a :class:`NetworkInterceptor` on ``network``."""
    return NetworkInterceptor(network, state)
