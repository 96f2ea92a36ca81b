"""Adversarial node policies on the node/engine exchange contract.

:class:`AdversarialNode` wraps any honest node object (the generic
:class:`~repro.core.protocol.GossipNode`, a Cyclon or PeerSwap node) and
rewrites what it *sends* while leaving what it *stores* honest: the
attacker keeps a normally evolving view (so it stays plausibly connected
and selectable), but its outgoing buffers are forged according to the
scenario's :class:`~repro.workloads.spec.AdversarySpec` kind:

``hub``
    Every outgoing request and reply is replaced by fresh hop-0
    descriptors of the attacker set ("over-advertise self with fresh
    timestamps"): under ``head``/healer view selection the receivers
    keep the youngest entries, so attacker in-degree snowballs.
``eclipse``
    Like ``hub``, but aimed: exchanges are retargeted at live victims,
    and only victims receive the poisoned replies -- everyone else gets
    honest answers, keeping the attack hard to spot globally.
``tamper``
    Outgoing buffers keep their membership but have every hop count
    zeroed -- a freshness forgery that defeats age-based (healer)
    filtering without changing who is advertised.
``drop``
    Outgoing buffers are withheld: requests go out empty, replies are
    empty, pulled responses are discarded.  The attacker still answers
    (an empty reply) so the initiator's exchange *completes* -- on the
    live engine a silent non-answer would instead surface as a timeout
    and break counter parity with the cycle model.

RNG discipline (the cross-engine byte-identity contract): every wrapper
method first lets the honest ``inner`` node run -- consuming exactly the
draws an honest node would -- and only then substitutes payloads.  The
single *extra* draw an attacker makes (the eclipse victim retarget) is
taken from the shared engine RNG at a fixed point;
:class:`~repro.adversary.harness.IndexedAdversary` implements the same
three interception points as hooks on the flat-array kernel's steps
(``tests/simulation/test_kernel_steps.py`` pins the two step by step).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.descriptor import Address, NodeDescriptor
from repro.core.protocol import Exchange
from repro.workloads.spec import AdversarySpec

__all__ = ["AdversarialNode", "AdversaryState"]


class AdversaryState:
    """Shared per-run attack state: who, what, and whether it is on.

    One instance is shared by every attacker wrapper (or the flat
    engines' hook policy) of a run;
    :class:`~repro.adversary.harness.AttackWindow` flips :attr:`active`
    on the spec's ``start_cycle``/``stop_cycle`` window.
    """

    __slots__ = (
        "spec",
        "attackers",
        "attacker_set",
        "victims",
        "victim_set",
        "active",
        "rng",
        "is_alive",
        "view_size",
        "_adverts",
    )

    def __init__(
        self,
        spec: AdversarySpec,
        attackers: Tuple[Address, ...],
        victims: Tuple[Address, ...],
        *,
        rng: random.Random,
        is_alive: Callable[[Address], bool],
        view_size: int,
    ) -> None:
        self.spec = spec
        self.attackers = attackers
        self.attacker_set = frozenset(attackers)
        self.victims = victims
        self.victim_set = frozenset(victims)
        self.active = False
        self.rng = rng
        self.is_alive = is_alive
        self.view_size = view_size
        self._adverts: Dict[Address, Tuple[Address, ...]] = {}

    def advert_addresses(self, sender: Address) -> Tuple[Address, ...]:
        """The attacker addresses ``sender`` advertises, sender first.

        Capped at ``view_size + 1`` entries -- the size of an honest
        request buffer (own descriptor plus a full view), so poisoned
        messages are not distinguishable by length.
        """
        cached = self._adverts.get(sender)
        if cached is None:
            cached = tuple(
                [sender] + [a for a in self.attackers if a != sender]
            )[: self.view_size + 1]
            self._adverts[sender] = cached
        return cached

    def poison_payload(self, sender: Address) -> List[NodeDescriptor]:
        """Fresh hop-0 descriptors of the attacker set, sender first.

        Built fresh on every call: receivers take ownership of payloads
        and mutate them in place (hop-count increments)."""
        return [
            NodeDescriptor(address, 0)
            for address in self.advert_addresses(sender)
        ]


class AdversarialNode:
    """A Byzantine wrapper around one honest node object.

    Transparent to engines and services: unknown attributes (``address``,
    ``config``, ``view``, ``liveness``, ``sample_peer``, ...) delegate to
    the wrapped node, and attribute writes (the engines install
    ``liveness`` predicates) are forwarded too.  Only the three exchange
    methods are intercepted, and only while the attack window is active.
    """

    __slots__ = ("inner", "state")

    def __init__(self, inner: object, state: AdversaryState) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "state", state)

    def __getattr__(self, name: str):
        return getattr(object.__getattribute__(self, "inner"), name)

    def __setattr__(self, name: str, value) -> None:
        if name in AdversarialNode.__slots__:
            object.__setattr__(self, name, value)
        else:
            setattr(self.inner, name, value)

    def __repr__(self) -> str:
        return (
            f"AdversarialNode(kind={self.state.spec.kind!r}, "
            f"inner={self.inner!r})"
        )

    # -- active thread -----------------------------------------------------

    def begin_exchange(self) -> Optional[Exchange]:
        inner = self.inner
        state = self.state
        exchange = inner.begin_exchange()
        if exchange is None or not state.active:
            # The honest selection draw happened (or the view was empty
            # and nothing was drawn) -- identical to an honest node.
            return exchange
        kind = state.spec.kind
        if kind == "drop":
            return Exchange(exchange.peer, [])
        if kind == "tamper":
            return Exchange(
                exchange.peer,
                [NodeDescriptor(d.address, 0) for d in exchange.payload],
            )
        # hub / eclipse: poisoned request; eclipse additionally retargets
        # the exchange at a live victim (one extra shared-RNG draw, only
        # when a live victim exists -- IndexedAdversary.retarget too).
        peer = exchange.peer
        if kind == "eclipse":
            is_alive = state.is_alive
            live = [v for v in state.victims if is_alive(v)]
            if live:
                peer = live[state.rng.randrange(len(live))]
        return Exchange(peer, state.poison_payload(inner.address))

    def handle_response(
        self, peer: Address, payload: List[NodeDescriptor]
    ) -> None:
        state = self.state
        if state.active and state.spec.kind == "drop":
            return None  # pulled view discarded unread
        return self.inner.handle_response(peer, payload)

    # -- passive thread ----------------------------------------------------

    def handle_request(
        self, peer: Address, payload: List[NodeDescriptor]
    ) -> Optional[List[NodeDescriptor]]:
        inner = self.inner
        state = self.state
        if not state.active:
            return inner.handle_request(peer, payload)
        kind = state.spec.kind
        if kind == "drop":
            # Swallow the request unmerged but still answer pulls (with
            # an empty reply) so the initiator's exchange completes --
            # see the module docstring on live-engine counter parity.
            return [] if getattr(inner.config, "pull", True) else None
        # The honest node merges the incoming buffer and builds its
        # honest reply first (same draws as an honest exchange) ...
        reply = inner.handle_request(peer, payload)
        if reply is None:
            return None  # push-only: no reply to forge
        # ... then the attacker forges what actually leaves the node.
        if kind == "tamper":
            return [NodeDescriptor(d.address, 0) for d in reply]
        if kind == "hub" or peer in state.victim_set:
            return state.poison_payload(inner.address)
        return reply  # eclipse answering a non-victim: stay honest
