"""Cycle-driven simulation engine (the paper's experimental model).

Semantics, matching the PeerSim-style setup the paper's numbers come from:

- Time advances in *cycles*.  In each cycle every live node executes the
  active thread of Figure 1 exactly once, in a fresh uniform random
  permutation of the nodes.
- An exchange completes synchronously within the initiator's turn: the
  request is delivered, the passive side replies (for pull/pushpull), and
  the initiator merges the reply, all before the next node's turn.
- A message to an address with no live node is silently lost -- the paper
  models no failure detector; dead links disappear only through the view
  dynamics themselves (this is exactly what the self-healing experiment,
  Figure 7, measures).

The engine is deterministic given a seed: a single :class:`random.Random`
instance drives node policies, the per-cycle permutation and any churn.
"""

from __future__ import annotations

from repro.simulation.base import BaseEngine, NodeFactory

__all__ = ["CycleEngine", "NodeFactory"]


class CycleEngine(BaseEngine):
    """Cycle-driven executor for a population of gossip nodes.

    See :class:`~repro.simulation.base.BaseEngine` for the constructor and
    population-management API.

    Example
    -------
    >>> from repro import CycleEngine, newscast
    >>> from repro.simulation.scenarios import random_bootstrap
    >>> engine = CycleEngine(newscast(view_size=10), seed=1)
    >>> random_bootstrap(engine, n_nodes=100)
    >>> engine.run(cycles=20)
    >>> engine.cycle
    20
    """

    family = "cycle"
    features = frozenset({"adversary", "validation", "extension"})
    shuffle_each_cycle: bool = True
    """When ``True`` (the default, and the paper's model) nodes initiate in
    a fresh random permutation each cycle.  Setting this to ``False`` fixes
    the insertion order; the ordering ablation test uses this."""

    def run_cycle(self) -> None:
        """Execute one full cycle: every live node initiates once."""
        self._notify_before_cycle()
        order = list(self._nodes)
        if self.shuffle_each_cycle:
            self.rng.shuffle(order)
        for address in order:
            node = self._nodes.get(address)
            if node is None:
                continue  # crashed by an observer mid-cycle
            exchange = node.begin_exchange()
            if exchange is None:
                continue
            peer = self._nodes.get(exchange.peer)
            if peer is None:
                # Message to a dead/unknown address: silently lost.
                self.failed_exchanges += 1
                continue
            if self.reachable is not None and not self.reachable(
                address, exchange.peer
            ):
                self.failed_exchanges += 1
                continue
            response = peer.handle_request(address, exchange.payload)
            if response is not None:
                node.handle_response(exchange.peer, response)
            self.completed_exchanges += 1
        self.cycle += 1
        self._notify_after_cycle()

    def run(self, cycles: int) -> None:
        """Execute ``cycles`` consecutive cycles."""
        for _ in range(cycles):
            self.run_cycle()
