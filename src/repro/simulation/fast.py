"""Array-backed fast cycle engine for 100k+ node populations.

:class:`FastCycleEngine` executes exactly the same protocol as
:class:`~repro.simulation.engine.CycleEngine` -- the paper's Figure 1
active/passive threads under the PeerSim-style synchronous cycle model --
but runs it over the shared flat-array protocol kernel
(:class:`~repro.simulation.arrayviews.FlatArrayEngine`) instead of one
``GossipNode`` + ``PartialView`` + ``NodeDescriptor`` object per peer.
The kernel owns the storage layout, the churn bookkeeping and the
Figure-1 exchange steps (see the :mod:`~repro.simulation.arrayviews`
module docstring for the layout and the Figure 1 mapping); this module
adds only the synchronous execution model: activation order,
reachability and the counters around those steps.  The asynchronous
counterpart, :class:`~repro.simulation.fast_event.FastEventEngine`,
schedules the same steps from a discrete-event heap -- neither engine
contains a copy of the exchange, so they cannot drift apart.

At 100,000 nodes with ``c = 30`` the whole overlay state is two ~24 MB C
buffers instead of several million Python objects, and one exchange is
pure index manipulation over reusable scratch buffers.

Execution backends
------------------

Because the kernel arrays are plain C ``int64`` memory, the cycle loop
itself has two interchangeable implementations, and one rule
(:meth:`~repro.simulation.arrayviews.FlatArrayEngine._backend`, asked
afresh every cycle) picks between them:

- the C core (:mod:`repro.simulation._fastcore`, compiled once with the
  system C compiler): ``fc_run_cycle`` schedules the C steps
  ``k_select`` / ``k_payload`` / ``k_receive`` and runs entire cycles
  natively -- orders of magnitude faster than the reference engine.  A
  :class:`~repro.simulation.churn.TemporaryPartition` window stays here:
  its groups are handed to the core as data;
- the kernel's Python steps (:meth:`FastCycleEngine._run_cycle_python`),
  for everything the core cannot express: no compiler (or
  ``REPRO_NO_ACCEL``), a non-MT RNG, descriptor validation, an arbitrary
  ``reachable`` callable, and -- with the attack hooks -- an open
  adversary window; still several times leaner than the object-per-node
  engine.

Determinism and RNG parity
--------------------------

Both backends reproduce the reference engine's random-number consumption
*exactly*.  The Python path draws through operations whose draw count
depends only on sizes (``randrange(n)`` instead of ``choice(seq)``,
``sample(range(n), k)`` instead of ``sample(list, k)``), in the order the
reference engine draws.  The C path goes further and reimplements
CPython's MT19937 primitives bit-for-bit, taking over the generator state
for the duration of a cycle and handing it back afterwards (see
``_fastcore``).  Given the same seed and call sequence, ``views()`` is
therefore *byte-identical* across ``CycleEngine`` and both
``FastCycleEngine`` backends, cycle by cycle, including under churn --
the differential suite in
``tests/simulation/test_fast_engine_differential.py`` pins this.

When to prefer which engine
---------------------------

- ``CycleEngine`` -- small populations, custom node factories (Cyclon,
  SCAMP, second-view extensions), or when per-node instrumentation of the
  ``GossipNode`` state machine is needed.
- ``FastCycleEngine`` -- large populations (10^4 .. 10^5+ nodes) running
  the built-in generic protocol; identical results, far faster and a
  fraction of the memory (see ``benchmarks/bench_fast_engine.py`` for the
  measured speedup table, summarized in ``ROADMAP.md``).
- ``EventEngine`` / ``FastEventEngine`` -- asynchronous message timing
  studies (the latter is the large-scale array-backed version).
"""

from __future__ import annotations

from array import array

from repro.simulation._fastcore import Accelerator
from repro.simulation.arrayviews import (
    FastNode,
    FastViewProxy,
    FlatArrayEngine,
)

__all__ = ["FastCycleEngine", "FastNode", "FastViewProxy"]


class FastCycleEngine(FlatArrayEngine):
    """Cycle-driven executor over the flat-array kernel (module docstring).

    Example
    -------
    >>> from repro import FastCycleEngine, newscast
    >>> from repro.simulation.scenarios import random_bootstrap
    >>> engine = FastCycleEngine(newscast(view_size=10), seed=1)
    >>> random_bootstrap(engine, n_nodes=100)
    >>> engine.run(cycles=20)
    >>> engine.cycle
    20
    """

    shuffle_each_cycle: bool = True
    """Same contract as ``CycleEngine.shuffle_each_cycle``."""

    # -- execution ---------------------------------------------------------

    def run_cycle(self) -> None:
        """Execute one full cycle: every live node initiates once.

        Mirrors ``CycleEngine.run_cycle`` operation for operation; see the
        module docstring for the RNG-parity argument.
        """
        self._notify_before_cycle()
        hooks, native = self._backend()
        if native is not None:
            self._run_cycle_c(*native)
        else:
            self._run_cycle_python(hooks)
        self.cycle += 1
        self._notify_after_cycle()

    def run(self, cycles: int) -> None:
        """Execute ``cycles`` consecutive cycles."""
        for _ in range(cycles):
            self.run_cycle()

    def _run_cycle_c(self, groups) -> None:
        """One cycle through the compiled core (``groups``: the open
        partition, see ``_backend``).

        The C side takes over the Mersenne Twister state for the duration
        of the cycle (same draws, same order as the reference engine) and
        hands it back through ``setstate`` afterwards.
        """
        accel = self._accel
        rng = self.rng
        order = array("q", self._live)
        state_before = rng.getstate()
        state = array("q", state_before[1])
        out = array("q", (0, 0))
        pointer = Accelerator.pointer
        self._accel_setup(accel, groups)
        accel.run_cycle(
            self._ctx,
            pointer(order.buffer_info()[0]),
            len(order),
            pointer(state.buffer_info()[0]),
            pointer(out.buffer_info()[0]),
        )
        rng.setstate((state_before[0], tuple(state), state_before[2]))
        self.completed_exchanges += out[0]
        self.failed_exchanges += out[1]

    def _run_cycle_python(self, hooks) -> None:
        """One cycle of kernel steps: this method only schedules them.

        Activation order, the lost-message accounting and the counters
        live here; what an exchange *does* is
        :meth:`~repro.simulation.arrayviews.FlatArrayEngine.select` /
        ``payload`` / ``receive``, with ``hooks`` the active attack
        policy (``None`` when honest).
        """
        rng = self.rng
        draw = rng.randrange
        alive = self._alive
        addr_of = self._addr_of
        reachable = self.reachable
        pull = self.config.pull
        select = self.select
        payload = self.payload
        receive = self.receive
        completed = 0
        failed = 0

        order = list(self._live)
        if self.shuffle_each_cycle:
            rng.shuffle(order)
        for i in order:
            if not alive[i]:
                continue  # crashed by an observer mid-cycle
            p = select(i, draw, hooks)
            if p < 0:
                continue
            if not alive[p] or (
                reachable is not None
                and not reachable(addr_of[i], addr_of[p])
            ):
                # Message to a dead (non-omniscient selection) or
                # unreachable address: silently lost.
                failed += 1
                continue
            rq_ids, rq_hops = payload(i, p, False, hooks)
            if pull:
                # passive thread: the reply snapshot precedes the merge.
                rp_ids, rp_hops = payload(p, i, True, hooks)
                receive(p, i, rq_ids, rq_hops, hooks)
                # active thread, second half: merge the pulled view.
                receive(i, p, rp_ids, rp_hops, hooks)
            else:
                receive(p, i, rq_ids, rq_hops, hooks)
            completed += 1
        self.completed_exchanges += completed
        self.failed_exchanges += failed
