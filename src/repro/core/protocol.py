"""The generic gossip node: paper Figure 1, both threads.

The paper's skeleton runs two concurrent threads per node:

active thread (once per cycle)::

    p <- selectPeer()
    if push:  send merge(view, {(myAddress, 0)}) to p
    else:     send {} to p                      # empty view triggers reply
    if pull:  receive view_p from p
              increaseHopCount(view_p)
              view <- selectView(merge(view_p, view))

passive thread (on every incoming request)::

    (p, view_p) <- waitMessage()
    increaseHopCount(view_p)
    if pull:  send merge(view, {(myAddress, 0)}) to p   # reply BEFORE merging
    view <- selectView(merge(view_p, view))

:class:`GossipNode` exposes this as three re-entrant methods so that both a
synchronous cycle-driven engine and an asynchronous event-driven engine can
drive it:

- :meth:`GossipNode.begin_exchange` -- the first half of the active thread:
  select a peer and build the request payload;
- :meth:`GossipNode.handle_request` -- the passive thread: optionally build
  a reply, then merge;
- :meth:`GossipNode.handle_response` -- the second half of the active
  thread: merge the pulled view.

Message ownership contract: payloads returned by ``begin_exchange`` and
``handle_request`` contain **fresh descriptor copies** (serialization), and
the receiving methods take ownership of the payload they are given and
mutate it in place.  Engines must deliver each payload to exactly one
recipient and must not retain references.
"""

from __future__ import annotations

import random
from typing import Callable, List, NamedTuple, Optional

from repro.core.config import ProtocolConfig
from repro.core.descriptor import (
    Address,
    NodeDescriptor,
    increase_hop_count,
)
from repro.core.view import PartialView, apply_healer_swapper, merge
from repro.defenses.validation import sanitize_payload


class Exchange(NamedTuple):
    """The outcome of one active-thread initiation."""

    peer: Address
    """The selected gossip partner."""

    payload: List[NodeDescriptor]
    """Request content; empty for pull-only protocols ("empty view to
    trigger response")."""


class GossipNode:
    """One protocol participant: a view plus the Figure 1 state machine.

    Parameters
    ----------
    address:
        This node's own address.
    config:
        The protocol instance to run.
    rng:
        Source of randomness for the ``rand`` policies.  Engines share one
        seeded :class:`random.Random` across nodes for reproducibility.
    view:
        Optional pre-populated view (bootstrap); defaults to an empty view
        of capacity ``config.view_size``.
    """

    __slots__ = ("address", "config", "view", "_rng", "liveness",
                 "exchanges_initiated", "requests_handled",
                 "responses_handled")

    def __init__(
        self,
        address: Address,
        config: ProtocolConfig,
        rng: random.Random,
        view: Optional[PartialView] = None,
    ) -> None:
        self.address = address
        self.config = config
        self._rng = rng
        self.view = view if view is not None else PartialView(config.view_size)
        self.liveness: Optional[Callable[[Address], bool]] = None
        """Optional predicate restricting peer selection to live nodes.

        The paper specifies that ``selectPeer()`` "returns the address of a
        **live** node as found in the caller's current view" -- in a real
        deployment a node discovers unresponsive peers through timeouts and
        reselects; the simulation engines model that by installing their
        membership test here.  Dead descriptors still occupy view slots
        (the dead links whose decay Figure 7 measures); they are only
        skipped as exchange partners.  Without this filter, deterministic
        ``tail`` peer selection would re-target the same crashed node
        forever and the overlay would stall instead of healing.
        """
        self.exchanges_initiated = 0
        self.requests_handled = 0
        self.responses_handled = 0

    def __repr__(self) -> str:
        return (
            f"GossipNode(address={self.address!r}, "
            f"protocol={self.config.label}, view_size={len(self.view)})"
        )

    # -- peer sampling primitive -------------------------------------------

    def sample_peer(self) -> Optional[Address]:
        """A uniform random address from the current view (``getPeer``).

        This is the paper's "simplest possible implementation" of the
        service's ``getPeer`` method; ``None`` when the view is empty.
        """
        entry = self.view.random_entry(self._rng)
        return None if entry is None else entry.address

    # -- active thread -------------------------------------------------------

    def select_peer(self) -> Optional[Address]:
        """Apply the peer selection policy to the current view.

        When a :attr:`liveness` predicate is installed, only live entries
        are candidates (see the attribute's docstring); dead descriptors
        stay in the view but are not selected.
        """
        if self.liveness is None:
            entry = self.config.peer_selection.select(self.view, self._rng)
        else:
            is_live = self.liveness
            candidates = [d for d in self.view if is_live(d.address)]
            entry = self.config.peer_selection.select_from(
                candidates, self._rng
            )
        return None if entry is None else entry.address

    def age_view(self) -> None:
        """Increment the hop count of every own view entry by one.

        Called once per cycle at the start of the node's active turn.  The
        Middleware 2004 pseudocode only increments *received* views, but
        without local aging the hop count of a stored descriptor would be
        frozen forever: hop-0 bootstrap entries would be immortal under
        ``head`` view selection (the overlay would never leave its initial
        topology) and dead descriptors would never age out, contradicting
        the paper's convergence and self-healing results (Figures 2-7).
        The authors' later formalization (Jelasity et al., ACM TOCS 2007,
        "Gossip-based Peer Sampling") makes this step explicit as
        ``view.increaseAge()`` in the active thread; we follow that
        semantics.
        """
        self.view.increase_hop_counts()

    def begin_exchange(self) -> Optional[Exchange]:
        """First half of the active thread: pick a peer, build the request.

        Ages the view by one cycle (see :meth:`age_view`), then selects a
        peer.  Returns ``None`` when the view is empty (nothing to gossip
        with).  The returned payload is freshly copied and owned by the
        recipient.
        """
        self.age_view()
        peer = self.select_peer()
        if peer is None:
            return None
        self.exchanges_initiated += 1
        if self.config.push:
            payload = self._outgoing_buffer()
        else:
            payload = []
        return Exchange(peer, payload)

    def handle_response(self, peer: Address, payload: List[NodeDescriptor]) -> None:
        """Second half of the active thread: merge the pulled view.

        Only meaningful for ``pull``/``pushpull`` protocols; engines must
        not call this for push-only configurations.
        """
        self.responses_handled += 1
        increase_hop_count(payload)
        if self.config.validate_descriptors:
            payload = sanitize_payload(
                payload, self.address, peer, self.config.view_size
            )
        self._apply_merge(payload)

    # -- passive thread ------------------------------------------------------

    def handle_request(
        self, peer: Address, payload: List[NodeDescriptor]
    ) -> Optional[List[NodeDescriptor]]:
        """The passive thread: receive ``payload`` from ``peer``.

        Returns the reply payload for ``pull``/``pushpull`` protocols (built
        *before* the received view is merged, exactly as in the paper's
        skeleton), or ``None`` for push-only protocols.
        """
        self.requests_handled += 1
        increase_hop_count(payload)
        if self.config.validate_descriptors:
            payload = sanitize_payload(
                payload, self.address, peer, self.config.view_size
            )
        reply = self._outgoing_buffer() if self.config.pull else None
        self._apply_merge(payload)
        return reply

    # -- internals -------------------------------------------------------------

    def _outgoing_buffer(self) -> List[NodeDescriptor]:
        """``merge(view, {(myAddress, 0)})``, as fresh copies."""
        buffer = [NodeDescriptor(self.address, 0)]
        for descriptor in self.view:
            # own address cannot appear in the view, so no dedup is needed
            buffer.append(descriptor.copy())
        return buffer

    def _apply_merge(self, received: List[NodeDescriptor]) -> None:
        """``view <- selectView(merge(received, view))``."""
        config = self.config
        exclude = None if config.keep_self_descriptors else self.address
        if config.healer or config.swapper:
            own = {id(d) for d in self.view}
            buffer = merge(received, self.view, exclude=exclude)
            buffer = apply_healer_swapper(
                buffer, config.view_size, config.healer, config.swapper, own
            )
        else:
            buffer = merge(received, self.view, exclude=exclude)
        selected = config.view_selection.select(
            buffer, config.view_size, self._rng
        )
        self.view.replace(selected)
