"""Array-backed asynchronous event engine for large-scale gossip runs.

:class:`FastEventEngine` executes the same asynchronous model as
:class:`~repro.simulation.event_engine.EventEngine` -- per-node periodic
timers at random phases, per-message latency and loss, passive replies on
delivery -- over the shared flat-array protocol kernel
(:class:`~repro.simulation.arrayviews.FlatArrayEngine`) instead of one
``GossipNode`` object per peer and one ``(float, counter, object)`` tuple
per scheduled event.  The paper's cycle-based findings only become
credible at scale if they survive this regime; the object-per-node event
engine tops out around 10^3 nodes, this engine sustains 10^4..10^5.

Execution model
---------------

Time is kept in exact integer *ticks*, ``ticks_per_period`` per gossip
period, on a :class:`~repro.simulation.scheduler.TickScheduler` -- a
binary heap of packed integers (tick, FIFO sequence number, event word)
with no per-event allocation.  The event word encodes a kind (timer /
request delivery / reply delivery) and either a node id or a *message
slot*: in-flight payloads live in a pooled flat buffer of ``c + 1``
descriptor slots per message (ids + hop counts + source/destination),
recycled through a free-list, so even the messages in flight allocate
nothing on the hot path.

Latency and loss are sampled per message from the same
:class:`~repro.simulation.network.LatencyModel` /
:class:`~repro.simulation.network.LossModel` objects the reference event
engine uses; float delays are mapped to ticks by one monotone
multiplication.

Equivalence with ``EventEngine``
--------------------------------

The engine consumes the RNG call-for-call like the reference event
engine (phase ``uniform`` per join, one ``_randbelow`` per ``rand`` peer
selection, loss before latency per message, merge-truncation draws
inside the kernel) and orders events exactly like the float scheduler up
to tick quantization: the tick map is monotone, and at the default
resolution of 2^40 ticks per period two distinct float event times
practically never collide into one tick.  For matched seeds the overlays
are therefore *byte-identical* to ``EventEngine``'s, which the engine
conformance suite (``tests/simulation/test_conformance.py``) pins across
protocols, latency/loss models and churn.

Execution backends
------------------

Two executors, one rule.  The kernel's
:meth:`~repro.simulation.arrayviews.FlatArrayEngine._backend` picks
between them and is asked again at every cycle boundary, where either
one hands every piece of state back -- so an observer may open an attack
window, install a partition or swap a model mid-run:

- ``fc_event_run`` (:meth:`FastEventEngine._run_events_c_full`): the
  whole dispatch loop -- heap, send tail and the C steps ``k_select`` /
  ``k_payload`` / ``k_receive`` -- runs natively and returns to Python
  only at cycle boundaries.  It takes the built-in latency/loss models
  as parameters and a
  :class:`~repro.simulation.churn.TemporaryPartition` window as data;
- the Python dispatch loop (:meth:`FastEventEngine._run_events`: the
  heap, reachability, loss, latency, message slots, counters) over the
  kernel's Python ``select`` / ``payload`` / ``receive`` steps, for
  everything the core cannot express: no compiler, a non-MT RNG,
  descriptor validation, an arbitrary ``reachable`` callable, a custom
  latency/loss model, and -- with the attack hooks -- an open adversary
  window.

Both produce byte-identical results.

Differences from the cycle engines
----------------------------------

- ``run(cycles)`` advances simulated time by ``cycles`` gossip periods;
  on average every node initiates once per period, and observers fire at
  period boundaries, so metrics are directly comparable.
- There is no per-cycle activation permutation: interleaving emerges
  from the timer phases.
- ``lockstep_phases=True`` starts every timer at phase zero (and skips
  the per-join phase draw), which reproduces cycle-engine-like rounds;
  with zero latency and no loss the degree distributions match the
  cycle engines statistically (a property test pins this).
"""

from __future__ import annotations

import random
from array import array
from heapq import heapify, heappop, heappush
from typing import Optional

from repro.core.config import ProtocolConfig
from repro.core.descriptor import Address
from repro.core.errors import ConfigurationError, SimulationError
from repro.simulation._fastcore import Accelerator
from repro.simulation.arrayviews import FlatArrayEngine
from repro.simulation.base import NodeFactory
from repro.simulation.network import (
    BernoulliLoss,
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    LossModel,
    NoLoss,
    UniformLatency,
)
from repro.simulation.scheduler import TickScheduler

__all__ = ["FastEventEngine", "DEFAULT_TICKS_PER_PERIOD"]

DEFAULT_TICKS_PER_PERIOD = 1 << 40
"""Default tick resolution: fine enough that distinct float event times
of the reference engine essentially never share a tick (which is what
makes the differential byte-identity achievable), coarse enough that a
300-period run stays far below the scheduler's packing headroom."""

# Event word layout (TickScheduler data): kind << 26 | index.
_KIND_SHIFT = 26
_IDX_MASK = (1 << _KIND_SHIFT) - 1
_DATA_BITS = _KIND_SHIFT + 2
_TIMER = 0 << _KIND_SHIFT      # index = node id
_REQUEST = 1 << _KIND_SHIFT    # index = message slot
_REPLY = 2 << _KIND_SHIFT      # index = message slot


class FastEventEngine(FlatArrayEngine):
    """Asynchronous timer-and-message executor over flat array storage.

    Parameters
    ----------
    config, seed, rng:
        As in :class:`~repro.simulation.base.BaseEngine`.  Custom
        ``node_factory`` protocols are not supported (use
        :class:`~repro.simulation.event_engine.EventEngine`).
    period:
        Gossip period ``T``: simulated time between a node's activations.
    latency:
        Per-message delay model (default: constant ``period / 10``).
    loss:
        Per-message drop model (default: no loss).
    accelerate:
        As in :class:`~repro.simulation.fast.FastCycleEngine`.
    ticks_per_period:
        Integer tick resolution of the scheduler (see module docstring).
    lockstep_phases:
        Start every timer at phase zero instead of a uniformly random
        phase (and consume no phase draw), producing cycle-like lockstep
        rounds.  Diverges from ``EventEngine``'s RNG stream; meant for
        controlled experiments, not differential runs.

    Example
    -------
    >>> from repro import FastEventEngine, newscast
    >>> from repro.simulation.network import UniformLatency, BernoulliLoss
    >>> from repro.simulation.scenarios import random_bootstrap
    >>> engine = FastEventEngine(
    ...     newscast(view_size=10), seed=1,
    ...     latency=UniformLatency(0.05, 0.2), loss=BernoulliLoss(0.01),
    ... )
    >>> random_bootstrap(engine, n_nodes=100)
    >>> engine.run(cycles=20)
    >>> engine.cycle
    20
    """

    family = "event"
    features = frozenset({"latency", "loss", "adversary", "validation"})
    shuffle_each_cycle: bool = False
    """No per-cycle permutation exists in the asynchronous model; node
    interleaving emerges from the timer phases."""

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
        accelerate: Optional[bool] = None,
        ticks_per_period: int = DEFAULT_TICKS_PER_PERIOD,
        lockstep_phases: bool = False,
    ) -> None:
        super().__init__(
            config=config,
            seed=seed,
            rng=rng,
            node_factory=node_factory,
            omniscient_peer_selection=omniscient_peer_selection,
            accelerate=accelerate,
        )
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if int(ticks_per_period) < 1:
            raise ConfigurationError(
                f"ticks_per_period must be >= 1, got {ticks_per_period}"
            )
        self.period = period
        self.latency = latency if latency is not None else ConstantLatency(period / 10)
        self.loss = loss if loss is not None else NoLoss()
        self.ticks_per_period = int(ticks_per_period)
        self.lockstep_phases = lockstep_phases
        self._tick_scale = self.ticks_per_period / period
        self._sched = TickScheduler(data_bits=_DATA_BITS)
        self._boundary_index = 0  # boundary k sits at exactly k * ticks_per_period
        self.messages_sent = 0
        self.messages_lost = 0
        # message slot pool: c + 1 descriptor slots per in-flight payload.
        self._slot_stride = self.config.view_size + 1
        self._zero_slot = bytes(8 * self._slot_stride)
        self._m_ids = array("q")
        self._m_hops = array("q")
        self._m_len = array("q")
        self._m_src = array("q")
        self._m_dst = array("q")
        self._free_slots: list = []
        # slots in [0, _pool_fresh) are in circulation (free or in flight);
        # [_pool_fresh, len(_m_len)) are preallocated untouched headroom
        # for the whole-slice C loop.
        self._pool_fresh = 0

    # -- clocks ------------------------------------------------------------

    @property
    def now_tick(self) -> int:
        """Current simulated time in scheduler ticks."""
        return self._sched.now_tick

    @property
    def now(self) -> float:
        """Current simulated time in the same units as ``period``."""
        return self._sched.now_tick / self.ticks_per_period * self.period

    # -- population hooks --------------------------------------------------

    def _on_node_added(self, address: Address) -> None:
        node_id = self._id_of[address]
        if node_id > _IDX_MASK:
            raise ConfigurationError(
                f"population exceeds {_IDX_MASK + 1} distinct addresses "
                "(event word capacity)"
            )
        if self.lockstep_phases:
            phase = 0
        else:
            # Random initial phase desynchronizes the node activations;
            # same draw as the reference event engine.
            phase = int(
                self.rng.uniform(0.0, self.period) * self._tick_scale
            )
        self._sched.push(self._sched.now_tick + phase, _TIMER | node_id)

    # -- message slot pool -------------------------------------------------

    def _new_slot(self) -> int:
        """Take a never-used slot (the free-list was empty), growing the
        pool by one when no preallocated headroom is left."""
        slot = self._pool_fresh
        if slot < len(self._m_len):
            self._pool_fresh = slot + 1
            return slot
        if slot > _IDX_MASK:
            raise ConfigurationError(
                f"more than {_IDX_MASK + 1} messages in flight "
                "(event word capacity)"
            )
        self._grow_pool(1)
        self._pool_fresh = slot + 1
        return slot

    def _grow_pool(self, slots: int) -> None:
        """Append up to ``slots`` untouched headroom slots to the pool.

        Growth is clamped to the event word's 26-bit slot capacity; once
        the pool is exhausted this raises the same clean
        :class:`~repro.core.errors.ConfigurationError` the per-slot path
        does -- the C loop's bulk-growth requests must never mint slot
        indices whose bits would bleed into the event kind field.
        """
        capacity = _IDX_MASK + 1
        available = capacity - len(self._m_len)
        if available <= 0:
            raise ConfigurationError(
                f"more than {capacity} messages in flight "
                "(event word capacity)"
            )
        slots = min(slots, available)
        zero = bytes(8 * slots)
        self._m_len.frombytes(zero)
        self._m_src.frombytes(zero)
        self._m_dst.frombytes(zero)
        self._m_ids.frombytes(self._zero_slot * slots)
        self._m_hops.frombytes(self._zero_slot * slots)

    def _event_setup(self, accel: Accelerator) -> None:
        """Register the message pool buffers with the C core."""
        pointer = Accelerator.pointer
        accel.event_setup(
            self._ctx,
            pointer(self._m_ids.buffer_info()[0]),
            pointer(self._m_hops.buffer_info()[0]),
            pointer(self._m_len.buffer_info()[0]),
            pointer(self._m_src.buffer_info()[0]),
            pointer(self._m_dst.buffer_info()[0]),
        )

    # -- execution ---------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Advance time by ``cycles`` gossip periods."""
        self.run_ticks(cycles * self.ticks_per_period)

    def run_cycle(self) -> None:
        """Advance time by one gossip period."""
        self.run_ticks(self.ticks_per_period)

    def run_time(self, duration: float) -> None:
        """Advance simulated time by ``duration`` (same units as ``period``).

        The tick conversion uses the exact float expression
        ``round(duration / period * ticks_per_period)`` -- the same one
        ``EventEngine.run_time`` applies to its integer time grid -- so
        chained ``run_time`` calls accumulate identically on both
        engines (a pre-rounded reciprocal can differ by one tick).
        """
        self.run_ticks(
            round(duration / self.period * self.ticks_per_period)
        )

    def run_ticks(self, duration_ticks: int) -> None:
        """Advance simulated time by ``duration_ticks`` scheduler ticks."""
        if duration_ticks < 0:
            raise ConfigurationError(
                f"cannot run a negative duration: {duration_ticks}"
            )
        sched = self._sched
        end = sched.now_tick + int(duration_ticks)
        while True:
            next_tick = sched.peek_tick()
            if next_tick is not None and next_tick <= end:
                # Both loops return when the slice is done *or* a cycle
                # boundary changed the backend selection; re-peek.
                selection = self._backend()
                if selection[1] is not None:
                    self._run_events_c_full(end, selection)
                else:
                    self._run_events(end, selection)
                continue
            # No events left at or before `end`.  Trailing boundaries are
            # fired one at a time, re-entering the dispatch loop after
            # each: observers may *create* work (the growing scenario
            # adds nodes whose timers must fire within this same run),
            # exactly like the reference engine's run_time.
            next_boundary = (self._boundary_index + 1) * self.ticks_per_period
            if next_boundary <= end:
                self._fire_boundaries(next_boundary)
                continue
            break
        sched.now_tick = end

    def _native_models(self):
        """Loss/latency parameters for the all-C loop, or ``None``.

        Only the built-in model classes are expressible: the C side
        reproduces their exact ``random.Random`` float expressions (see
        ``fc_event_run``), so results stay byte-identical with the
        Python loop, which is where custom models run.
        """
        loss = self.loss
        if type(loss) is NoLoss:
            loss_code, loss_p = 0, 0.0
        elif type(loss) is BernoulliLoss:
            loss_code, loss_p = 1, loss.probability
        else:
            return None
        latency = self.latency
        if type(latency) is ConstantLatency:
            lat = (0, int(latency.delay * self._tick_scale), 0.0, 0.0)
        elif type(latency) is UniformLatency:
            lat = (1, 0, latency.low, latency.high - latency.low)
        elif type(latency) is ExponentialLatency:
            # ExponentialLatency.sample calls expovariate(1.0 / mean).
            lat = (2, 0, 1.0 / latency.mean, 0.0)
        else:
            return None
        return (loss_code, loss_p) + lat

    def _fire_boundaries(self, up_to_tick: int) -> None:
        # Boundary k is the exact integer product k * ticks_per_period.
        ticks_per_period = self.ticks_per_period
        while (self._boundary_index + 1) * ticks_per_period <= up_to_tick:
            self._boundary_index += 1
            self.cycle += 1
            self._notify_after_cycle()
            self._notify_before_cycle()

    def _count(self, completed, failed, sent, lost) -> None:
        """Flush a dispatch loop's local counters into the public ones."""
        self.completed_exchanges += completed
        self.failed_exchanges += failed
        self.messages_sent += sent
        self.messages_lost += lost

    # -- the dispatch loop -------------------------------------------------

    def _steps(self, hooks):
        """The kernel's Python steps in the dispatch loops' calling
        convention, as ``(begin, deliver)``.

        The convention is that of the C entry points ``fc_event_begin``
        / ``fc_event_deliver``: payloads travel through message slots,
        ``begin`` returns the selected peer.  ``hooks`` is the active
        attack policy, or ``None``.
        """
        draw = self.rng.randrange
        select = self.select
        payload = self.payload
        receive = self.receive
        stride = self._slot_stride
        m_ids = self._m_ids
        m_hops = self._m_hops
        m_len = self._m_len
        m_src = self._m_src

        def store(slot: int, ids, hops) -> None:
            n = m_len[slot] = len(ids)
            if n:
                off = slot * stride
                m_ids[off:off + n] = array("q", ids)
                m_hops[off:off + n] = array("q", hops)

        def begin(node: int, slot: int) -> int:
            peer = select(node, draw, hooks)
            if peer >= 0:
                ids, hops = payload(node, peer, False, hooks)
                store(slot, ids, hops)
            return peer

        def deliver(node: int, slot: int, reply_slot: int) -> None:
            sender = m_src[slot]
            if reply_slot >= 0:
                ids, hops = payload(node, sender, True, hooks)
                store(reply_slot, ids, hops)
            off = slot * stride
            end = off + m_len[slot]
            receive(
                node,
                sender,
                m_ids[off:end].tolist(),
                m_hops[off:end].tolist(),
                hooks,
            )

        return begin, deliver

    def _run_events(self, end: int, selection) -> None:
        """Dispatch events up to ``end``: the Python heap loop.

        Mirrors ``EventEngine.run_time`` decision for decision and draw
        for draw -- see the module docstring for the equivalence
        argument.  The loop owns *when* things happen (the heap, timers,
        reachability, loss, latency, message slots, counters); *what* a
        node does on a timer or a delivery are the kernel's Python steps
        (:meth:`_steps`), under the hooks that ``selection`` -- this
        slice's :meth:`_backend` answer -- names.

        Counters are accumulated locally and flushed before every cycle
        boundary so observers see up-to-date totals.  After a boundary
        the selection is re-evaluated; when it changed the loop returns
        with all state handed back, and ``run_ticks`` re-enters through
        the backend that now applies.
        """
        begin, deliver = self._steps(selection[0])
        new_slot = self._new_slot
        rng = self.rng
        sched = self._sched
        heap = sched._heap
        tick_shift = sched._tick_shift
        seq_shift = sched._seq_shift
        data_mask = sched._data_mask
        seq = sched._seq
        ticks_per_period = self.ticks_per_period
        tick_scale = self._tick_scale
        alive = self._alive
        addr_of = self._addr_of
        m_src = self._m_src
        m_dst = self._m_dst
        free_slots = self._free_slots
        free_pop = free_slots.pop
        free_append = free_slots.append
        pull = self.config.pull
        # What the reference event engine reads per send, and boundary
        # observers may swap mid-run: bound here, again after a boundary.
        reachable = self.reachable
        loss_drops = self.loss.drops
        latency_sample = self.latency.sample
        completed = 0
        failed = 0
        sent = 0
        lost = 0
        # Control flow compares raw packed keys, not unpacked ticks: for
        # any threshold tick T, key < T << shift  <=>  tick < T, because
        # the low (seq | data) bits are always below 1 << shift.
        end_key = ((end + 1) << tick_shift) - 1
        boundary_key = (
            (self._boundary_index + 1) * ticks_per_period
        ) << tick_shift
        period_key = ticks_per_period << tick_shift
        tick_mask = ~((1 << tick_shift) - 1)  # key & tick_mask strips seq/data
        last_key = None

        try:
            while heap:
                key = heap[0]
                if key > end_key:
                    break
                if key >= boundary_key:
                    # flush counters and hand control to the observers;
                    # they may draw, crash/add nodes, push timers, open
                    # an attack window or install a model.
                    self._count(completed, failed, sent, lost)
                    completed = failed = sent = lost = 0
                    sched._seq = seq
                    if last_key is not None:
                        sched.now_tick = last_key >> tick_shift
                    self._fire_boundaries(key >> tick_shift)
                    boundary_key = (
                        (self._boundary_index + 1) * ticks_per_period
                    ) << tick_shift
                    seq = sched._seq
                    if self._backend() != selection:
                        return
                    reachable = self.reachable
                    loss_drops = self.loss.drops
                    latency_sample = self.latency.sample
                    continue  # re-peek: observers may have pushed events
                key = heappop(heap)
                last_key = key
                data = key & data_mask
                out_slot = -1  # the message this event sends, if any

                if data < _REQUEST:  # timer; data is the bare node id
                    src = data
                    if not alive[src]:
                        continue  # crashed: the timer dies with the node
                    slot = free_pop() if free_slots else new_slot()
                    dst = begin(src, slot)
                    if dst >= 0:
                        out_slot = slot
                        kind = _REQUEST
                    else:
                        free_append(slot)
                else:
                    slot = data & _IDX_MASK
                    src = m_dst[slot]  # the receiver sends what follows
                    if not alive[src]:
                        failed += 1
                        free_append(slot)
                        continue
                    if data >= _REPLY:
                        # second half of the active thread
                        deliver(src, slot, -1)
                    else:
                        # the passive thread; under pull its reply
                        # snapshot precedes the merge (Figure 1).
                        if pull:
                            out_slot = (
                                free_pop() if free_slots else new_slot()
                            )
                            dst = m_src[slot]
                            kind = _REPLY
                        deliver(src, slot, out_slot)
                        completed += 1
                    free_append(slot)

                if out_slot >= 0:
                    sent += 1
                    # unreachable before loss before latency, per message
                    if (
                        reachable is not None
                        and not reachable(addr_of[src], addr_of[dst])
                    ) or loss_drops(rng):
                        lost += 1
                        free_append(out_slot)
                    else:
                        delay = latency_sample(rng)
                        if delay < 0:
                            # same guard EventEngine gets from
                            # EventScheduler.schedule
                            raise SimulationError(
                                f"cannot schedule into the past: {delay}"
                            )
                        m_src[out_slot] = src
                        m_dst[out_slot] = dst
                        heappush(
                            heap,
                            (key & tick_mask)
                            + (int(delay * tick_scale) << tick_shift)
                            + ((seq << seq_shift) | kind | out_slot),
                        )
                        seq += 1
                if data < _REQUEST:
                    # the timer survives even when no exchange started
                    heappush(
                        heap,
                        (key & tick_mask)
                        + period_key
                        + ((seq << seq_shift) | data),
                    )
                    seq += 1
        finally:
            # flush even when an observer raises mid-slice, so a caller
            # that catches and resumes sees consistent counters and
            # scheduler state (the whole-slice path guards the same way).
            self._count(completed, failed, sent, lost)
            # monotonic guard: if an observer raised mid-boundary after
            # pushing events, the scheduler's counter is already ahead of
            # this local -- never roll it back, or later pushes would mint
            # duplicate (tick, seq) keys and break FIFO ordering.
            if seq > sched._seq:
                sched._seq = seq
            if last_key is not None:
                sched.now_tick = last_key >> tick_shift

    # -- the whole-slice C event loop --------------------------------------

    _HEAP_HEADROOM = 4096
    _POOL_HEADROOM = 4096

    def _run_events_c_full(self, end: int, selection) -> None:
        """Dispatch events up to ``end`` natively in C, with the partition
        groups and model codes of ``selection`` (a :meth:`_backend` answer).

        The pending-event heap is migrated from the Python packed-int
        representation into three parallel ``int64`` arrays (a positional
        copy: the heap property is preserved under the order-isomorphic
        key mapping, and (tick, seq) keys are unique, so the pop order is
        identical), then ``fc_event_run`` pops, dispatches and pushes
        without touching the interpreter until a cycle boundary, the end
        of the slice, or a capacity limit.  Observers run in Python at
        every boundary with the RNG state and all bookkeeping handed
        back, exactly like the Python dispatch loop.

        Returns early when a boundary changed the backend selection (an
        attack window opened, a partition opened or healed, an observer
        swapped a model) -- all state is handed back consistently and
        ``run_ticks`` re-enters through the backend that now applies.
        """
        groups, loss_code, loss_p, lat_code, const_delay, lat_a, lat_b = (
            selection[1]
        )
        accel = self._accel
        sched = self._sched
        heap = sched._heap
        tick_shift = sched._tick_shift
        seq_shift = sched._seq_shift
        data_mask = sched._data_mask
        seq_mask = (1 << TickScheduler.SEQ_BITS) - 1
        ticks_per_period = self.ticks_per_period
        tick_scale = self._tick_scale
        rng = self.rng
        pointer = Accelerator.pointer
        ctx = self._ctx

        # heap migration: positional copy into (tick, seq, data) arrays.
        n = len(heap)
        ht = array("q", [key >> tick_shift for key in heap])
        hs = array("q", [(key >> seq_shift) & seq_mask for key in heap])
        hd = array("q", [key & data_mask for key in heap])
        pad = bytes(8 * self._HEAP_HEADROOM)

        def grow_heap() -> int:
            for column in (ht, hs, hd):
                column.frombytes(pad)
            return len(ht)

        heap_cap = grow_heap()
        heap.clear()
        hlen = array("q", (n,))
        # message pool: ensure untouched headroom for C-side allocation.
        if len(self._m_len) - self._pool_fresh < self._POOL_HEADROOM:
            self._grow_pool(
                self._pool_fresh + self._POOL_HEADROOM - len(self._m_len)
            )
        pool_cap = len(self._m_len)
        free_slots = self._free_slots
        flist = array("q", free_slots)
        flist.frombytes(bytes(8 * (pool_cap - len(flist))))
        flen = array("q", (len(free_slots),))
        free_slots.clear()
        fresh = array("q", (self._pool_fresh,))
        seq_io = array("q", (sched._seq,))
        now_io = array("q", (sched.now_tick,))
        counters = array("q", (0, 0, 0, 0))
        top_tick = array("q", (0,))
        state = array("q", bytes(8 * 625))  # the MT state, while in C
        state_ptr = pointer(state.buffer_info()[0])

        self._accel_setup(accel, groups)
        self._event_setup(accel)
        version, internal, gauss = rng.getstate()
        state[:] = array("q", internal)
        accel.load_state(ctx, state_ptr)
        resident = True
        try:
            while True:
                boundary = (self._boundary_index + 1) * ticks_per_period
                reason = accel.event_run(
                    ctx,
                    end,
                    boundary,
                    pointer(ht.buffer_info()[0]),
                    pointer(hs.buffer_info()[0]),
                    pointer(hd.buffer_info()[0]),
                    pointer(hlen.buffer_info()[0]),
                    heap_cap,
                    pointer(flist.buffer_info()[0]),
                    pointer(flen.buffer_info()[0]),
                    pointer(fresh.buffer_info()[0]),
                    pool_cap,
                    pointer(seq_io.buffer_info()[0]),
                    pointer(now_io.buffer_info()[0]),
                    loss_code,
                    loss_p,
                    lat_code,
                    const_delay,
                    lat_a,
                    lat_b,
                    tick_scale,
                    ticks_per_period,
                    pointer(counters.buffer_info()[0]),
                    pointer(top_tick.buffer_info()[0]),
                )
                if reason == 0 or reason == 4:  # end of slice / empty heap
                    break
                if reason == 1:  # cycle boundary: observers run in Python
                    self._count(*counters)
                    counters[0] = counters[1] = counters[2] = counters[3] = 0
                    sched._seq = seq_io[0]
                    sched.now_tick = now_io[0]
                    accel.store_state(ctx, state_ptr)
                    rng.setstate((version, tuple(state), gauss))
                    resident = False
                    self._fire_boundaries(top_tick[0])
                    seq_io[0] = sched._seq
                    version, internal, gauss = rng.getstate()
                    state[:] = array("q", internal)
                    # observers may have grown buffers: re-register, then
                    # drain their pushes into the C-side heap.
                    self._accel_setup(accel, groups)
                    self._event_setup(accel)
                    if heap:
                        while hlen[0] + len(heap) > heap_cap:
                            heap_cap = grow_heap()
                        hlen_ptr = pointer(hlen.buffer_info()[0])
                        for key in heap:
                            accel.heap_push(
                                key >> tick_shift,
                                (key >> seq_shift) & seq_mask,
                                key & data_mask,
                                pointer(ht.buffer_info()[0]),
                                pointer(hs.buffer_info()[0]),
                                pointer(hd.buffer_info()[0]),
                                hlen_ptr,
                            )
                        heap.clear()
                    accel.load_state(ctx, state_ptr)
                    resident = True
                    if self._backend() != selection:
                        return
                elif reason == 2:  # heap arrays full: grow and re-enter
                    heap_cap = grow_heap()
                elif reason == 3:  # message pool full: grow and re-enter
                    self._grow_pool(self._POOL_HEADROOM)
                    pool_cap = len(self._m_len)
                    flist.frombytes(bytes(8 * self._POOL_HEADROOM))
                    self._event_setup(accel)
                else:  # pragma: no cover - unknown reason code
                    raise RuntimeError(f"fc_event_run returned {reason}")
        finally:
            if resident:
                accel.store_state(ctx, state_ptr)
                rng.setstate((version, tuple(state), gauss))
            self._count(*counters)
            # monotonic guard: if an observer raised mid-boundary after
            # pushing events, the scheduler's counter is already ahead of
            # this local -- never roll it back, or later pushes would mint
            # duplicate (tick, seq) keys and break FIFO ordering.
            if seq_io[0] > sched._seq:
                sched._seq = seq_io[0]
            sched.now_tick = now_io[0]
            self._pool_fresh = fresh[0]
            self._free_slots[:] = flist[: flen[0]].tolist()
            # repack the C heap (and any undrained Python pushes) into the
            # canonical packed-int representation.
            packed = [
                (ht[i] << tick_shift) | (hs[i] << seq_shift) | hd[i]
                for i in range(hlen[0])
            ]
            if heap:  # exception during an observer: merge, restore order
                packed.extend(heap)
                heapify(packed)
            heap[:] = packed
