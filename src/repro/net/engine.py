"""``live``: an engine-shaped runner that gossips over real datagrams.

:class:`LiveEngine` implements the cycle-driven engine contract
(:class:`~repro.simulation.base.BaseEngine`: population management,
observers, ``views()``, ``run(cycles)``) but executes every exchange as
the deployed stack would: the request and reply are *encoded to wire
bytes* (codec v2), shipped through an in-process loopback datagram
transport on an asyncio loop, decoded, and merged by a
:class:`~repro.net.daemon.GossipDaemon` under the service lock.

Relation to the three simulation engines (see ROADMAP):

- like :class:`~repro.simulation.engine.CycleEngine`, time advances in
  cycles and every live node initiates once per cycle in a fresh random
  permutation; exchanges complete within the initiator's turn;
- unlike any simulator, nothing is passed by reference -- if the codec,
  the envelope, the transport or the daemon's correlation/timeout logic
  mishandled a message, the overlay would visibly diverge.

Because the wire round-trip is lossless and the node logic draws from the
shared engine RNG in the same order, a ``LiveEngine`` run is
**byte-identical** to a ``CycleEngine`` run with the same seed (pinned by
``tests/net/test_live_engine.py``) -- the strongest possible validation
that the deployment layer implements the same protocol the paper's
numbers come from.  It is meant for small-N validation, not scale: every
message is genuinely serialized, scheduled and parsed.

Select it like any other engine: ``make_engine(..., engine="live")`` or
``REPRO_ENGINE=live``.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional

from repro.core.config import NetworkConfig, ProtocolConfig
from repro.core.descriptor import Address
from repro.core.errors import ConfigurationError
from repro.core.service import PeerSamplingService
from repro.net.daemon import GossipDaemon
from repro.net.transport import LoopbackNetwork, LoopbackTransport
from repro.simulation.base import BaseEngine

__all__ = ["LiveEngine"]


class LiveEngine(BaseEngine):
    """Cycle-driven executor whose exchanges cross a datagram transport.

    See the module docstring for semantics.  Custom ``node_factory``
    protocols are not supported: the daemon speaks the generic wire
    format, which encodes exactly the Figure 1 message kinds.

    Example
    -------
    >>> from repro.net.engine import LiveEngine
    >>> from repro.core.config import newscast
    >>> from repro.simulation.scenarios import random_bootstrap
    >>> engine = LiveEngine(newscast(view_size=10), seed=1)
    >>> random_bootstrap(engine, n_nodes=25)
    >>> engine.run(cycles=5)
    >>> engine.cycle
    5
    """

    family = "cycle"
    features = frozenset({"adversary", "validation"})
    shuffle_each_cycle: bool = True
    """Same contract as ``CycleEngine.shuffle_each_cycle``."""

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        node_factory=None,
        omniscient_peer_selection: bool = True,
        network: Optional[NetworkConfig] = None,
    ) -> None:
        if node_factory is not None:
            raise ConfigurationError(
                "LiveEngine runs the built-in generic protocol only; "
                "use CycleEngine for custom node factories"
            )
        super().__init__(
            config=config,
            seed=seed,
            rng=rng,
            omniscient_peer_selection=omniscient_peer_selection,
        )
        if network is None:
            # Lockstep cycles need no wall-clock pacing; the timeout only
            # fires for genuinely lost messages, so keep it short.
            network = NetworkConfig(
                cycle_seconds=0.05, jitter=0.0, request_timeout=0.2
            )
        self.network_config = network
        # No latency/loss models here: the live engine validates the wire
        # stack against the cycle model, where delivery is reliable.
        # Lossy/latency studies belong to LocalCluster and EventEngine.
        self._network = LoopbackNetwork(rng=random.Random(0))
        self._daemons: Dict[Address, GossipDaemon] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- event loop management --------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None or self._loop.is_closed():
            self._loop = asyncio.new_event_loop()
        return self._loop

    def close(self) -> None:
        """Release the engine's private event loop (idempotent)."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.close()
        self._loop = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- population management --------------------------------------------

    def _on_node_added(self, address: Address) -> None:
        node = self._nodes[address]
        transport = LoopbackTransport(self._network, address)
        transport.open()
        daemon = GossipDaemon(
            node,
            transport,
            self.network_config,
            # Daemon-local randomness (jitter, first exchange id) must not
            # consume the shared protocol RNG or parity with CycleEngine
            # would break; jitter is unused in lockstep anyway.
            rng=random.Random(len(self._daemons)),
        )
        self._daemons[address] = daemon

    def _teardown_daemon(self, address: Address) -> None:
        daemon = self._daemons.pop(address, None)
        if daemon is None:
            return
        daemon.transport.close_now()
        daemon.cancel_pending()

    def remove_node(self, address: Address) -> None:
        """Crash the node at ``address`` (other views keep its descriptors)."""
        super().remove_node(address)
        self._teardown_daemon(address)

    def crash_random_nodes(self, count: int) -> List[Address]:
        """Crash ``count`` uniformly random nodes; return their addresses."""
        victims = super().crash_random_nodes(count)
        for victim in victims:
            self._teardown_daemon(victim)
        return victims

    def service(self, address: Address) -> PeerSamplingService:
        """The *daemon's* service for ``address`` (shares its view lock)."""
        daemon = self._daemons.get(address)
        if daemon is not None:
            return daemon.service
        return super().service(address)

    def daemon(self, address: Address) -> GossipDaemon:
        """The daemon running the node at ``address`` (for instrumentation)."""
        return self._daemons[address]

    # -- execution ---------------------------------------------------------

    def run_cycle(self) -> None:
        """Execute one full cycle: every live node initiates once, over
        the wire."""
        self._notify_before_cycle()
        loop = self._ensure_loop()
        loop.run_until_complete(self._gossip_round())
        self.cycle += 1
        self._notify_after_cycle()

    def run(self, cycles: int) -> None:
        """Execute ``cycles`` consecutive cycles."""
        for _ in range(cycles):
            self.run_cycle()

    async def _gossip_round(self) -> None:
        order = list(self._nodes)
        if self.shuffle_each_cycle:
            self.rng.shuffle(order)
        for address in order:
            daemon = self._daemons.get(address)
            if daemon is None:
                continue  # crashed by an observer mid-cycle
            with daemon.service.lock:
                exchange = daemon.node.begin_exchange()
            if exchange is None:
                continue
            if exchange.peer not in self._nodes:
                # Message to a dead address: the cycle engine counts it
                # failed without a delivery attempt; mirroring that here
                # keeps the counters byte-identical under non-omniscient
                # peer selection (and skips a real-time pull timeout).
                self.failed_exchanges += 1
                continue
            if self.reachable is not None and not self.reachable(
                address, exchange.peer
            ):
                # Engine-level partition model, applied exactly where the
                # cycle engine applies it: after peer selection, before
                # the send -- no timeout is wasted on a known partition.
                self.failed_exchanges += 1
                continue
            completed = await daemon.initiate(exchange)
            if completed:
                if not daemon.node.config.pull:
                    # Push sends are fire-and-forget; give the loop one
                    # turn so the passive side merges before the next
                    # initiator acts (the cycle model's semantics).
                    await asyncio.sleep(0)
                self.completed_exchanges += 1
            else:
                # initiate() only returns False on a pull timeout: the
                # peer crashed (non-omniscient selection) or the reply
                # was lost -- a failed exchange in the cycle model too.
                self.failed_exchanges += 1
