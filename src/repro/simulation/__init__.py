"""Simulation substrate: engines, network models, churn and scenarios.

Two engines drive the same :class:`~repro.core.protocol.GossipNode` state
machine:

- :class:`~repro.simulation.engine.CycleEngine` -- PeerSim-style
  cycle-driven execution: in every cycle each node runs the active thread
  exactly once, in a random permutation, and exchanges complete
  synchronously.  This matches the paper's experimental setup and is what
  the experiment harness uses.
- :class:`~repro.simulation.event_engine.EventEngine` -- asynchronous
  timer-driven execution with modelled message latency and loss, used to
  check that the cycle-level results carry over to a more realistic
  deployment model.

Both execution models also exist over the shared flat-array protocol
kernel (:mod:`repro.simulation.arrayviews`), for 10^4..10^5+ node
populations: :class:`~repro.simulation.fast.FastCycleEngine` is
byte-compatible with :class:`CycleEngine` given the same seed, and
:class:`~repro.simulation.fast_event.FastEventEngine` is byte-compatible
with :class:`EventEngine` -- both optionally through a compiled C core.

A third execution family scales a *single* run across cores:
:class:`~repro.simulation.sharded.ShardedCycleEngine` runs deterministic
synchronous BSP rounds over the same kernel, optionally partitioned
across shard processes through shared memory, with results identical for
every shard count (see :mod:`repro.simulation.sharded`).

Every engine calls its :class:`~repro.simulation.trace.Observer` hooks
around each cycle; what a run measures through them is the vocabulary
of :mod:`repro.workloads.measure`.
"""

from repro.simulation.engine import CycleEngine
from repro.simulation.event_engine import EventEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.sharded import ShardedCycleEngine
from repro.simulation.network import (
    BernoulliLoss,
    ConstantLatency,
    ExponentialLatency,
    NoLoss,
    UniformLatency,
)
from repro.simulation.trace import Observer

__all__ = [
    "BernoulliLoss",
    "ConstantLatency",
    "CycleEngine",
    "EventEngine",
    "ExponentialLatency",
    "FastCycleEngine",
    "FastEventEngine",
    "NoLoss",
    "Observer",
    "ShardedCycleEngine",
    "UniformLatency",
]
