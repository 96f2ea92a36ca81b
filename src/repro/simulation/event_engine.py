"""Event-driven simulation engine: asynchronous gossip with real latency.

While the cycle-driven engine reproduces the paper's experimental model
exactly, real deployments are asynchronous: every node fires its active
thread on a private timer ("wait(T time units)" in Figure 1), requests and
replies travel with latency, and messages can be lost.  This engine models
that, so that the cycle-level findings can be validated under a more
realistic execution model (``tests/simulation/test_event_engine.py``
checks the degree regime under latency and loss).

Model
-----
- Every node owns a periodic timer with period ``period``.  Timers start at
  a uniformly random phase, so node activations interleave.
- On each timer tick the node runs the first half of the active thread and
  the request is delivered after ``latency.sample(rng)`` time units, unless
  ``loss.drops(rng)``.
- The passive side replies immediately upon delivery (processing time is
  not modelled); the reply travels with an independent latency sample.
- Deliveries to crashed nodes are silently dropped, as are replies to
  initiators that crashed mid-exchange.
- For observability the engine maps time onto *cycles* of length
  ``period``: observers fire at every cycle boundary, and ``cycle`` counts
  completed periods.  On average every node initiates once per cycle,
  making metrics directly comparable with the cycle-driven engine.

Unlike the blocking ``receive`` of the paper's skeleton, a pull initiator
here simply merges the reply whenever it arrives (possibly after its next
timer tick).  This is how practical implementations (e.g. Newscast) behave.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional

from repro.core.config import ProtocolConfig
from repro.core.descriptor import Address, NodeDescriptor
from repro.core.errors import ConfigurationError
from repro.simulation.base import BaseEngine, NodeFactory
from repro.simulation.network import (
    ConstantLatency,
    LatencyModel,
    LossModel,
    NoLoss,
)
from repro.simulation.scheduler import EventScheduler

__all__ = ["EventEngine"]

_TIME_GRID = 1 << 40
"""Integer quanta per gossip period for the run-horizon bookkeeping --
the same default resolution the tick-based fast event engine uses, so
chained ``run_time`` calls accumulate exactly on both engines."""


class _Timer(NamedTuple):
    """One node's periodic activation.

    Carries the timer's absolute ``phase`` and occurrence ``index`` so
    that the ``k``-th firing is scheduled at the exact absolute time
    ``phase + k * period`` (one float multiplication from an integer)
    instead of accumulating ``now + period`` -- chained relative delays
    drift after many periods (see the scheduler module docstring).
    """

    address: Address
    phase: float
    index: int


class _Request(NamedTuple):
    sender: Address
    recipient: Address
    payload: List[NodeDescriptor]


class _Reply(NamedTuple):
    sender: Address
    recipient: Address
    payload: List[NodeDescriptor]


class EventEngine(BaseEngine):
    """Asynchronous timer-and-message executor for gossip nodes.

    Parameters
    ----------
    config, seed, rng, node_factory:
        As in :class:`~repro.simulation.base.BaseEngine`.
    period:
        Gossip period ``T``: simulated time between a node's activations.
    latency:
        Per-message delay model (default: constant ``period / 10``).
    loss:
        Per-message drop model (default: no loss).
    """

    family = "event"
    features = frozenset({"latency", "loss", "adversary", "validation"})
    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        node_factory: Optional[NodeFactory] = None,
        period: float = 1.0,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        omniscient_peer_selection: bool = True,
    ) -> None:
        super().__init__(
            config=config,
            seed=seed,
            rng=rng,
            node_factory=node_factory,
            omniscient_peer_selection=omniscient_peer_selection,
        )
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.period = period
        self.latency = latency if latency is not None else ConstantLatency(period / 10)
        self.loss = loss if loss is not None else NoLoss()
        self._scheduler = EventScheduler()
        self._boundary_index = 0  # boundary k sits at exactly k * period
        # The run horizon is an exact integer: whole periods plus
        # _TIME_GRID-ths of a period from explicit run_time calls.  N
        # run_cycle() calls (or chained run_time fractions) therefore end
        # at exactly the same point as one equivalent run(N) -- a
        # float-accumulated sum can fall short of the Nth boundary and
        # silently drop its observers.
        self._elapsed_periods = 0
        self._extra_ticks = 0
        self.messages_sent = 0
        self.messages_lost = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._scheduler.now

    # -- population hooks ----------------------------------------------------

    def _on_node_added(self, address: Address) -> None:
        # Random initial phase desynchronizes the node activations.  The
        # absolute phase anchors the whole timer sequence: firing k is at
        # phase + k * period, exact in k, so timers never drift.
        phase = self._scheduler.now + self.rng.uniform(0.0, self.period)
        self._scheduler.schedule_at(phase, _Timer(address, phase, 0))

    # -- execution -------------------------------------------------------------

    def run_time(self, duration: float) -> None:
        """Advance simulated time by ``duration``, processing all events.

        Cycle boundaries interleave with event dispatch even when the
        queue runs dry: observers may *create* work (the growing scenario
        adds nodes, whose timers must then fire within the same run), so
        trailing boundaries are fired one at a time, draining any newly
        scheduled events in between, rather than back-to-back at the end.
        """
        if duration < 0:
            # rewinding `now` would violate the monotone-clock contract
            raise ConfigurationError(
                f"cannot run a negative duration: {duration}"
            )
        self._extra_ticks += round(duration / self.period * _TIME_GRID)
        self._run_until_horizon()

    def run(self, cycles: int) -> None:
        """Advance time by ``cycles`` gossip periods."""
        if cycles < 0:
            # rewinding `now` would violate the monotone-clock contract
            raise ConfigurationError(
                f"cannot run a negative duration: {cycles}"
            )
        self._elapsed_periods += cycles
        self._run_until_horizon()

    def run_cycle(self) -> None:
        """Advance time by one gossip period."""
        self.run(1)

    def _run_until_horizon(self) -> None:
        # integer horizon: exact boundary accounting; float `end` only
        # cuts off the (float-timed) event queue.
        grid_end = self._elapsed_periods * _TIME_GRID + self._extra_ticks
        end = grid_end / _TIME_GRID * self.period
        while True:
            next_time = self._scheduler.peek_time()
            if next_time is not None and next_time <= end:
                self._fire_boundaries(next_time)
                self._dispatch(self._scheduler.pop())
                continue
            if (self._boundary_index + 1) * _TIME_GRID <= grid_end:
                self._fire_next_boundary()
                continue
            break
        self._scheduler.now = end

    # -- internals ----------------------------------------------------------------

    def _fire_boundaries(self, up_to: float) -> None:
        # Boundary k is the exact product k * period, not an accumulated
        # sum, for the same no-drift reason as the gossip timers.
        while (self._boundary_index + 1) * self.period <= up_to:
            self._fire_next_boundary()

    def _fire_next_boundary(self) -> None:
        self._boundary_index += 1
        self.cycle += 1
        self._notify_after_cycle()
        self._notify_before_cycle()

    def _dispatch(self, event: object) -> None:
        if isinstance(event, _Timer):
            self._on_timer(event)
        elif isinstance(event, _Request):
            self._on_request(event)
        elif isinstance(event, _Reply):
            self._on_reply(event)

    def _send(self, sender: Address, recipient: Address, message: object) -> bool:
        """Apply loss and reachability, schedule delivery; report acceptance."""
        self.messages_sent += 1
        if self.reachable is not None and not self.reachable(sender, recipient):
            self.messages_lost += 1
            return False
        if self.loss.drops(self.rng):
            self.messages_lost += 1
            return False
        self._scheduler.schedule(self.latency.sample(self.rng), message)
        return True

    def _on_timer(self, event: _Timer) -> None:
        node = self._nodes.get(event.address)
        if node is None:
            return  # crashed: timer dies with the node
        exchange = node.begin_exchange()
        if exchange is not None:
            self._send(
                event.address,
                exchange.peer,
                _Request(event.address, exchange.peer, exchange.payload),
            )
        self._scheduler.schedule_at(
            event.phase + (event.index + 1) * self.period,
            _Timer(event.address, event.phase, event.index + 1),
        )

    def _on_request(self, event: _Request) -> None:
        node = self._nodes.get(event.recipient)
        if node is None:
            self.failed_exchanges += 1
            return
        reply = node.handle_request(event.sender, event.payload)
        self.completed_exchanges += 1
        if reply is not None:
            self._send(
                event.recipient,
                event.sender,
                _Reply(event.recipient, event.sender, reply),
            )

    def _on_reply(self, event: _Reply) -> None:
        node = self._nodes.get(event.recipient)
        if node is None:
            self.failed_exchanges += 1
            return
        node.handle_response(event.sender, event.payload)
