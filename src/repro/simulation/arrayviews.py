"""Flat-array protocol kernel: the view storage and the Figure-1 exchange
steps shared by every array-backed engine.

The paper's Figure 1 describes one gossip participant as a partial view
plus two threads.  :class:`FlatArrayEngine` implements that participant --
for an entire population at once -- as index arithmetic over preallocated
``array('q')`` buffers, and states the exchange **once**, as three steps:
:meth:`~FlatArrayEngine.select`, :meth:`~FlatArrayEngine.payload` and
:meth:`~FlatArrayEngine.receive`.  The executors only *schedule* them:
:class:`~repro.simulation.fast.FastCycleEngine` in a shuffled cycle,
:class:`~repro.simulation.fast_event.FastEventEngine` from its event
heap, :class:`~repro.simulation.sharded.ShardedCycleEngine` in BSP
phases with keyed draws.  An attack is a set of hooks on the same steps
(:class:`~repro.adversary.harness.IndexedAdversary`), consulted only
while its window is open; :meth:`FlatArrayEngine._backend` is the one
rule that decides whether a cycle runs these Python steps or the C core
(whose ``k_select`` / ``k_payload`` / ``k_receive`` mirror them one for
one, pinned by ``tests/simulation/test_kernel_steps.py``, and whose entry
points are likewise only schedulers).

Mapping back to Figure 1 of the paper
-------------------------------------

==============================  =================================================
Figure 1 step                   kernel primitive
==============================  =================================================
``view`` (the partial view)     one row of the flat buffers: ``_vids[row*c+k]``
                                holds the interned peer id of the ``k``-th
                                descriptor, ``_vhops`` its hop count,
                                ``_vlen[row]`` the fill level; rows are
                                compacted in increasing hop-count order,
                                exactly the invariant ``PartialView`` keeps
``view.increaseAge()``          the first half of :meth:`FlatArrayEngine.select`:
                                in-place increment of one row's ``_vhops``
                                slice at the start of the active thread (the
                                TOCS-2007 formalization of local aging; see
                                ``GossipNode.age_view``)
``selectPeer()``                the second half of :meth:`FlatArrayEngine.select`:
                                the one ``head``/``rand``/``tail`` dispatch over
                                a row (``rand`` = one draw from the injected
                                ``draw(n)``), restricted to live ids when the
                                engine is omniscient; the *retarget* hook
``send merge(view,{(me,0)})``   :meth:`FlatArrayEngine.payload`, for the pushed
                                request and the pulled reply alike; the
                                *rewrite* hook sees it before it leaves
``increaseHopCount(view_p)``    receiver-side ``+1`` applied when a payload is
                                built (the increment is deterministic, so the
                                kernel pre-applies it: payload hop ``h`` is
                                stored as ``h + 1``)
``receive view_p``              :meth:`FlatArrayEngine.receive`: the *drop* hook,
                                descriptor validation (``;v``), then the merge
``merge(view_p, view)``         :meth:`FlatArrayEngine._merge_into`: duplicate
                                elimination keeping the lowest hop count with
                                received-first tie order, in index space
``selectView(...)``             the tail of :meth:`FlatArrayEngine._merge_into`:
                                healer/swapper pre-truncation followed by the
                                ``head``/``rand``/``tail`` truncation, drawing
                                from the engine RNG (or the injected keyed
                                ``sample``) exactly as the reference
                                ``ViewSelection.select`` does
``init(contacts)``              :meth:`FlatArrayEngine.add_node` /
                                :meth:`FlatArrayEngine.bootstrap_random_views`
                                (the out-of-band bootstrap of paper Section 3)
==============================  =================================================

Storage model
-------------

Every address ever seen is *interned* to a small permanent integer id (a
crashed node that rejoins keeps its id, so stale descriptors in other
views correctly point at the rejoined node, exactly as address-keyed
dictionaries behave in the reference engines).  Per-id state lives in
parallel arrays -- ``_addr_of`` (inverse interning), ``_alive``
(liveness), ``_row_of`` (view row, ``-1`` when dead) -- and a free-list
recycles view rows under churn, so memory is bounded by the peak live
population, not by the total number of joins.

RNG discipline
--------------

Every primitive consumes the engine's ``random.Random`` in exactly the
order and quantity the object-per-node reference engines do (one
``_randbelow`` per ``rand`` peer selection, one ``sample`` per ``rand``
view truncation, and so on).  This is what makes the array engines
*byte-identical* to their reference counterparts for the same seed --
the differential suites pin it.  The optional C core
(:mod:`repro.simulation._fastcore`) upholds the same contract by
reimplementing CPython's MT19937 draw helpers bit for bit.
"""

from __future__ import annotations

import random
from array import array
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.descriptor import Address, NodeDescriptor
from repro.core.errors import (
    ConfigurationError,
    NodeNotFoundError,
    ViewError,
)
from repro.core.policies import PeerSelection, ViewSelection
from repro.core.view import merge
from repro.defenses.validation import sanitize_indexed
from repro.simulation._fastcore import (
    Accelerator,
    load_accelerator,
    unavailable_reason,
)
from repro.simulation.base import BaseEngine
from repro.simulation.churn import SameGroup

__all__ = ["FlatArrayEngine", "FastNode", "FastViewProxy"]

_POLICY_CODE = {"rand": 0, "head": 1, "tail": 2}
_RAND = PeerSelection.RAND  # enum member lookups are slow on the hot path
_HEAD = PeerSelection.HEAD


class FastViewProxy:
    """One node's view row behind the node contract: a ``capacity``, a
    size, iteration in hop-count order and a validating :meth:`replace`.

    Iteration materializes :class:`NodeDescriptor` objects on demand;
    :meth:`replace` writes straight back into the engine's flat arrays.
    Only the bootstrap / introspection paths use this class -- the
    exchange hot paths never do.
    """

    __slots__ = ("_engine", "_id")

    def __init__(self, engine: "FlatArrayEngine", node_id: int) -> None:
        self._engine = engine
        self._id = node_id

    @property
    def capacity(self) -> int:
        """The view capacity ``c`` (shared by all nodes of the engine)."""
        return self._engine.config.view_size

    def _bounds(self) -> "tuple":
        engine = self._engine
        row = engine._row_of[self._id]
        if row < 0:
            return 0, 0
        base = row * engine.config.view_size
        return base, base + engine._vlen[row]

    def __len__(self) -> int:
        base, end = self._bounds()
        return end - base

    def __iter__(self) -> Iterator[NodeDescriptor]:
        engine = self._engine
        base, end = self._bounds()
        for k in range(base, end):
            yield NodeDescriptor(
                engine._addr_of[engine._vids[k]], engine._vhops[k]
            )

    def replace(self, entries: Iterable[NodeDescriptor]) -> None:
        """Adopt ``entries`` as the new view content (bootstrap path).

        Same contract as :meth:`PartialView.replace`: deduplicate keeping
        the lowest hop count, order by hop count, reject overflow.
        """
        merged = merge(entries)
        if len(merged) > self.capacity:
            raise ViewError(
                f"{len(merged)} descriptors exceed view capacity "
                f"{self.capacity}"
            )
        engine = self._engine
        row = engine._row_of[self._id]
        if row < 0:
            raise NodeNotFoundError(engine._addr_of[self._id])
        base = row * engine.config.view_size
        vids = engine._vids
        vhops = engine._vhops
        intern = engine._intern
        for k, descriptor in enumerate(merged):
            entry_id = intern(descriptor.address)
            if not engine._alive[entry_id]:
                engine._maybe_dead_refs = True
            vids[base + k] = entry_id
            vhops[base + k] = descriptor.hop_count
        engine._vlen[row] = len(merged)


class FastNode:
    """The node contract over one live node of the engine: its
    ``address``, its ``view`` and the ``getPeer`` draw.

    That is all ``PeerSamplingService``, the bootstrap scenarios and the
    measurements read of a node; the handle holds no per-node state of
    its own.
    """

    __slots__ = ("_engine", "address", "view")

    def __init__(self, engine: "FlatArrayEngine", node_id: int) -> None:
        self._engine = engine
        self.address = engine._addr_of[node_id]
        self.view = FastViewProxy(engine, node_id)

    def sample_peer(self) -> Optional[Address]:
        """A uniform random address from the current view (``getPeer``).

        Reads the view row directly and consumes exactly one
        ``_randbelow`` draw, like ``random.Random.choice`` on the
        reference view's entry list.
        """
        base, end = self.view._bounds()
        if base == end:
            return None
        engine = self._engine
        return engine._addr_of[
            engine._vids[base + engine.rng.randrange(end - base)]
        ]


class FlatArrayEngine(BaseEngine):
    """Population storage and the exchange steps over flat arrays.

    Subclasses provide the execution model --
    :class:`~repro.simulation.fast.FastCycleEngine` runs the PeerSim-style
    synchronous cycle loop, :class:`~repro.simulation.fast_event.FastEventEngine`
    an asynchronous discrete-event loop -- while this base owns everything
    they share: interning, view rows, churn bookkeeping, bulk bootstrap,
    the exchange steps (select / payload / receive, merge/truncate
    included), the backend-selection rule and the optional C accelerator
    handle.

    Implements the full :class:`~repro.simulation.base.BaseEngine`
    population API (``add_node`` / ``remove_node`` / ``crash_random_nodes``
    / ``views`` / ``dead_link_count`` / observers / ``reachable``), so the
    scenario helpers, ``GraphSnapshot.from_engine`` and the experiment
    runners work unchanged.  Custom ``node_factory`` protocols are not
    supported -- extension protocols keep using the object-per-node
    engines.

    Parameters
    ----------
    accelerate:
        ``None`` (default): use the compiled C core when available,
        falling back to pure Python silently.  ``False``: never use the C
        core.  ``True``: require it (raises
        :class:`~repro.core.errors.ConfigurationError`, naming the
        reason, when it cannot be built).  Both backends produce
        byte-identical results.  Every engine owns its C-side state, so
        engines may run concurrently in threads of one process.
    """

    shuffle_each_cycle: bool = True
    """Whether cycle-driven subclasses permute the activation order each
    cycle (see ``CycleEngine.shuffle_each_cycle``); event-driven
    subclasses ignore it (activation order emerges from the timers)."""

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        node_factory=None,
        omniscient_peer_selection: bool = True,
        accelerate: Optional[bool] = None,
    ) -> None:
        if node_factory is not None:
            raise ConfigurationError(
                f"{type(self).__name__} runs the built-in generic protocol "
                "only; use CycleEngine/EventEngine for custom node factories"
            )
        super().__init__(
            config=config,
            seed=seed,
            rng=rng,
            omniscient_peer_selection=omniscient_peer_selection,
        )
        assert self.config is not None
        self._accel: Optional[Accelerator] = (
            None if accelerate is False else load_accelerator()
        )
        if accelerate is True and self._accel is None:
            raise ConfigurationError(
                "accelerate=True but no C accelerator is available: "
                + unavailable_reason()
            )
        # The engine's own C-side state (MT19937, registrations, scratch).
        self._ctx = (
            self._accel.context(self) if self._accel is not None else None
        )
        # id-indexed state (permanent: ids are never reused).
        self._addr_of: List[Address] = []
        self._id_of: Dict[Address, int] = {}
        self._alive = array("B")
        self._row_of = array("q")
        # live ids, in the reference engine's dict-insertion order.
        self._live: Dict[int, None] = {}
        # flat view storage: c slots per row, free-list recycling.
        self._vids = array("q")
        self._vhops = array("q")
        self._vlen = array("q")
        self._free_rows: List[int] = []
        self._zero_row = bytes(8 * self.config.view_size)
        # False until a crash/ghost contact makes dead view entries
        # possible; while False, the Python path skips liveness filtering
        # (the C path always filters -- same candidate set either way).
        self._maybe_dead_refs = False
        # (installed ``reachable``, its lowering to an array): _backend().
        self._lowered = (None, None)

    @property
    def accelerated(self) -> bool:
        """Whether the compiled C core is in use."""
        return self._accel is not None

    adversary = None
    """An installed :class:`~repro.adversary.harness.IndexedAdversary`
    (the attack hooks of the exchange steps below), or ``None``.  It only
    matters while its window is open -- see :meth:`_backend`."""

    def _backend(self):
        """The backend-selection rule, as ``(hooks, native)``.

        Evaluated at every cycle boundary from observable state, so
        observers may open an attack window, install ``reachable`` or
        swap a model mid-run and the very next cycle honours it.  Two
        outcomes:

        - ``native is None``: the kernel's Python steps -- with ``hooks``
          while an attack window is open; also under descriptor
          validation, without a C core or a plain MT19937 it can take
          over, and for what only a Python call can decide per message
          (an arbitrary ``reachable``, a custom latency/loss model);
        - else the executor's whole-loop C entry point and its
          parameters ``native = (groups, *models)``: the open partition
          as data (:meth:`_lowered_groups`; ``None`` when no
          ``reachable`` is installed) and :meth:`_native_models`.
        """
        adversary = self.adversary
        if adversary is not None and adversary.active:
            return adversary, None
        models = self._native_models()
        if (
            self._accel is None
            or self.config.validate_descriptors
            or type(self.rng) is not random.Random
            or models is None
        ):
            return None, None
        groups = None
        reachable = self.reachable
        if reachable is not None:
            if self._lowered[0] is not reachable:  # once per install
                self._lowered = (reachable, self._lowered_groups(reachable))
            groups = self._lowered[1]
            if groups is None:
                return None, None
        return None, (groups, *models)

    def _native_models(self):
        """What the whole-loop C path needs to know about per-message
        models, or ``None`` when they take a Python call (the cycle
        model has none)."""
        return ()

    def _lowered_groups(self, reachable) -> Optional[array]:
        """A :class:`SameGroup` as the id-indexed array ``k_cut`` reads;
        ``None`` for any other callable.

        A dense group code per interned id, ``-1`` where it names no
        group; ids interned later lie past the end: both unconstrained,
        as in :class:`SameGroup`.  Also ``None`` when it names an address
        not interned yet, whose group a later join would put out of sight.
        """
        if type(reachable) is not SameGroup:
            return None
        lowered = array("q", (-1,)) * len(self._addr_of)
        id_of = self._id_of
        codes: Dict[object, int] = {}
        for address, group in reachable.groups.items():
            node_id = id_of.get(address)
            if node_id is None:
                return None
            lowered[node_id] = codes.setdefault(group, len(codes))
        return lowered

    # -- id / storage management ------------------------------------------

    def _intern(self, address: Address) -> int:
        """The permanent integer id for ``address`` (allocating one if new)."""
        node_id = self._id_of.get(address)
        if node_id is None:
            node_id = len(self._addr_of)
            self._id_of[address] = node_id
            self._addr_of.append(address)
            self._alive.append(0)
            self._row_of.append(-1)
        return node_id

    def _allocate_row(self) -> int:
        if self._free_rows:
            return self._free_rows.pop()
        row = len(self._vlen)
        self._vlen.append(0)
        self._vids.frombytes(self._zero_row)
        self._vhops.frombytes(self._zero_row)
        return row

    def _accel_setup(
        self, accel: Accelerator, groups: Optional[array] = None
    ) -> None:
        """Register the engine's buffers and protocol with the C core,
        and the open partition (``groups`` as in :meth:`_backend`).

        Must be re-issued whenever a buffer may have moved (any growth);
        the cycle engine simply calls it once per accelerated entry
        point.
        """
        config = self.config
        pointer = Accelerator.pointer
        status = accel.setup(
            self._ctx,
            pointer(self._vids.buffer_info()[0]),
            pointer(self._vhops.buffer_info()[0]),
            pointer(self._vlen.buffer_info()[0]),
            pointer(self._row_of.buffer_info()[0]),
            Accelerator.byte_pointer(self._alive.buffer_info()[0]),
            config.view_size,
            config.healer,
            config.swapper,
            int(config.keep_self_descriptors),
            int(config.push),
            int(config.pull),
            _POLICY_CODE[config.peer_selection.value],
            _POLICY_CODE[config.view_selection.value],
            int(self.omniscient_peer_selection),
            int(self.shuffle_each_cycle),
            pointer(groups.buffer_info()[0]) if groups is not None else None,
            len(groups) if groups is not None else 0,
        )
        if status:
            raise MemoryError("cannot allocate the C core scratch buffers")

    # -- population management --------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, address: Address) -> bool:
        node_id = self._id_of.get(address)
        return node_id is not None and bool(self._alive[node_id])

    def addresses(self) -> List[Address]:
        """All live node addresses, in insertion order."""
        addr_of = self._addr_of
        return [addr_of[i] for i in self._live]

    def node(self, address: Address) -> FastNode:
        """A handle for the live node at ``address`` (raises if absent)."""
        node_id = self._id_of.get(address)
        if node_id is None or not self._alive[node_id]:
            raise NodeNotFoundError(address)
        return FastNode(self, node_id)

    def is_alive(self, address: Address) -> bool:
        """Whether a live node exists at ``address``."""
        node_id = self._id_of.get(address)
        return node_id is not None and bool(self._alive[node_id])

    def add_node(
        self,
        address: Optional[Address] = None,
        contacts: Iterable[Address] = (),
    ) -> Address:
        """Create a live node, optionally seeding its view with contacts.

        Identical contract (and auto-address sequence) to
        :meth:`BaseEngine.add_node`: contacts enter with hop count 0, a
        node's own address is filtered out, the list is truncated to the
        view capacity before deduplication -- matching what
        ``PeerSamplingService.init`` does on the reference engine.
        """
        if address is None:
            while self._next_auto_address in self:
                self._next_auto_address += 1
            address = self._next_auto_address
            self._next_auto_address += 1
        if address in self:
            raise ConfigurationError(f"node {address!r} already exists")
        node_id = self._intern(address)
        self._alive[node_id] = 1
        row = self._allocate_row()
        self._row_of[node_id] = row
        self._vlen[row] = 0
        self._live[node_id] = None
        c = self.config.view_size
        base = row * c
        n = 0
        taken = 0  # duplicates consume capacity slots, like init's [:c]
        seen = set()
        for contact in contacts:
            if contact == address:
                continue
            if taken >= c:
                break
            taken += 1
            contact_id = self._intern(contact)
            if not self._alive[contact_id]:
                self._maybe_dead_refs = True
            if contact_id in seen:
                continue
            seen.add(contact_id)
            self._vids[base + n] = contact_id
            self._vhops[base + n] = 0
            n += 1
        self._vlen[row] = n
        self._on_node_added(address)
        return address

    def remove_node(self, address: Address) -> None:
        """Crash the node at ``address`` (other views keep its descriptors)."""
        node_id = self._id_of.get(address)
        if node_id is None or not self._alive[node_id]:
            raise NodeNotFoundError(address)
        self._kill(node_id)

    def _kill(self, node_id: int) -> None:
        self._alive[node_id] = 0
        self._free_rows.append(self._row_of[node_id])
        self._row_of[node_id] = -1
        del self._live[node_id]
        self._maybe_dead_refs = True

    def crash_random_nodes(self, count: int) -> List[Address]:
        """Crash ``count`` uniformly random nodes; return their addresses.

        Consumes the RNG exactly like the reference engine (one ``sample``
        over the insertion-ordered live address list).
        """
        if count > len(self._live):
            raise ConfigurationError(
                f"cannot crash {count} of {len(self._live)} nodes"
            )
        addr_of = self._addr_of
        victims = self.rng.sample([addr_of[i] for i in self._live], count)
        for victim in victims:
            self._kill(self._id_of[victim])
        return victims

    # -- bulk bootstrap ----------------------------------------------------

    def bootstrap_random_views(
        self, addresses: List[Address], view_fill: Optional[int] = None
    ) -> bool:
        """Fill every view with a random sample, entirely in index space.

        The flat-array fast path behind
        :func:`~repro.simulation.scenarios.random_bootstrap`: no
        ``NodeDescriptor`` objects, no per-entry merge -- and with the C
        core, no interpreted sampling loop at all.  Consumes the RNG
        *exactly* like the generic path (the same ``sample()`` draws in
        the same order), so overlays stay byte-identical across engines
        for the same seed; the differential suite pins this.

        Returns ``False`` -- leaving all state untouched -- when the
        engine is not a freshly auto-addressed population of exactly
        ``addresses`` (the only case worth specializing); the caller then
        falls back to the generic path.
        """
        n = len(addresses)
        if (
            len(self._live) != n
            or len(self._addr_of) != n
            or self._free_rows
            or self._addr_of != list(range(n))
            or addresses != self._addr_of
        ):
            return False
        c = self.config.view_size
        fill = c if view_fill is None else view_fill
        fill = min(fill, n - 1, c)
        if fill <= 0:
            return True  # single node / zero fill: every view stays empty
        rng = self.rng
        k = fill + 1
        if self._accel is not None and type(rng) is random.Random:
            self._bootstrap_c(self._accel, n, k, fill)
            return True
        vids = self._vids
        vhops = self._vhops
        vlen = self._vlen
        row_of = self._row_of
        sample = rng.sample
        zeros = array("q", bytes(8 * fill))
        for i in range(n):
            others = sample(addresses, k)
            row = row_of[i]
            base = row * c
            w = 0
            for peer in others:
                if peer != i:
                    if w == fill:
                        break
                    vids[base + w] = peer
                    w += 1
            vhops[base : base + fill] = zeros
            vlen[row] = w
        return True

    def _bootstrap_c(self, accel: Accelerator, n: int, k: int, fill: int) -> None:
        """Run ``fc_bootstrap`` (bit-exact ``sample()`` draws in C)."""
        rng = self.rng
        state_before = rng.getstate()
        state = array("q", state_before[1])
        self._accel_setup(accel)
        accel.bootstrap(
            self._ctx, n, k, fill, Accelerator.pointer(state.buffer_info()[0])
        )
        rng.setstate((state_before[0], tuple(state), state_before[2]))

    # -- introspection ----------------------------------------------------

    def views(self) -> Dict[Address, Sequence[NodeDescriptor]]:
        """A snapshot of every node's current view entries.

        Same key order (node insertion) and entry order (increasing hop
        count) as the reference engine's ``views()``.  The small-N /
        debug API: it builds one ``NodeDescriptor`` per entry, which the
        array-level read interface below never does.
        """
        c = self.config.view_size
        addr_of = self._addr_of
        vids = self._vids
        vhops = self._vhops
        row_of = self._row_of
        vlen = self._vlen
        result: Dict[Address, Sequence[NodeDescriptor]] = {}
        for node_id in self._live:
            row = row_of[node_id]
            base = row * c
            result[addr_of[node_id]] = [
                NodeDescriptor(addr_of[vids[k]], vhops[k])
                for k in range(base, base + vlen[row])
            ]
        return result

    # -- array-level read interface ------------------------------------------
    #
    # Measurements read the flat storage through transient zero-copy
    # numpy views.  A live view pins its array('q') -- the next growth
    # would raise BufferError -- so none may outlive the method that
    # made it: everything returned below is a copy.

    _buffer = staticmethod(memoryview)
    """How a storage vector exports its memory (``array`` speaks the
    buffer protocol itself; the sharded engine's vectors do not)."""

    def _flat(self, vector, dtype: str = "int64"):
        """A transient zero-copy numpy view of one storage vector."""
        import numpy as np

        return np.frombuffer(
            self._buffer(vector), dtype=dtype, count=len(vector)
        )

    def _live_rows(self):
        """``(live ids, their view rows, their fill levels)`` in
        :meth:`views` key order -- all copies."""
        import numpy as np

        live = np.fromiter(self._live, dtype=np.int64, count=len(self._live))
        rows = self._flat(self._row_of)[live]
        return live, rows, self._flat(self._vlen)[rows]

    def _live_entries(self):
        """``(live ids, fill levels, flattened entry ids)`` in
        :meth:`views` key and entry order -- all copies."""
        import numpy as np

        live, rows, sizes = self._live_rows()
        c = self.config.view_size
        filled = np.arange(c) < sizes[:, None]
        return live, sizes, self._flat(self._vids).reshape(-1, c)[rows][filled]

    def edge_arrays(self):
        """See :meth:`BaseEngine.edge_arrays`; a pure array reduction."""
        import numpy as np

        live, sizes, entries = self._live_entries()
        position = np.full(len(self._addr_of), -1, dtype=np.int64)
        position[live] = np.arange(live.size)
        src = np.repeat(np.arange(live.size), sizes)
        dst = position[entries]
        alive = dst >= 0
        return self.addresses(), src[alive], dst[alive]

    def view_rows(self):
        """See :meth:`BaseEngine.view_rows`; no descriptor objects."""
        c = self.config.view_size
        addr_of = self._addr_of
        vids = self._vids
        vhops = self._vhops
        row_of = self._row_of
        vlen = self._vlen
        address_of = addr_of.__getitem__
        for node_id in self._live:
            row = row_of[node_id]
            base = row * c
            end = base + vlen[row]
            yield (
                addr_of[node_id],
                list(map(address_of, vids[base:end])),
                vhops[base:end],
            )

    def dead_link_count(self) -> int:
        """Total descriptors across all views pointing at dead addresses."""
        _, _, entries = self._live_entries()
        alive = self._flat(self._alive, "uint8")[entries]
        return int(entries.size) - int(alive.sum(dtype="int64"))

    def view_sizes(self) -> List[int]:
        """Every node's view fill level, in :meth:`views` key order."""
        _, _, sizes = self._live_rows()
        return sizes.tolist()

    # -- the Figure-1 exchange steps -----------------------------------------
    #
    # Written once; every array-backed executor only decides *when* a
    # step runs and which ``draw`` feeds it.  ``hooks`` is the active
    # attack policy (see ``repro.adversary.harness.IndexedAdversary``)
    # or ``None`` on an honest run, and is consulted for the ids in
    # ``hooks.attackers`` only -- like the object engines, which wrap
    # only attacker nodes.

    def select(self, node: int, draw, hooks=None) -> int:
        """First half of the active thread: age the view, select a peer.

        Returns the selected peer id, or ``-1`` when the view holds no
        candidate.  ``draw(n)`` supplies the one ``rand`` selection draw
        (``rng.randrange`` on the MT engines, the keyed counter draw on
        the sharded one).  Under omniscient selection only live entries
        are candidates; otherwise the peer may be dead and the executor
        accounts for the lost message.  ``hooks.retarget`` runs after an
        attacker's honest selection succeeded, like
        ``AdversarialNode.begin_exchange``.
        """
        row = self._row_of[node]
        ln = self._vlen[row]
        if not ln:
            return -1  # empty view: nothing to gossip with, nothing to age
        config = self.config
        base = row * config.view_size
        end = base + ln
        vhops = self._vhops
        vhops[base:end] = array("q", [h + 1 for h in vhops[base:end]])
        entries = None
        if self.omniscient_peer_selection and self._maybe_dead_refs:
            # Dead descriptors may exist: restrict selection to live
            # entries, like the reference liveness predicate does.
            entries = self._vids[base:end]
            entries = list(
                compress(entries, map(self._alive.__getitem__, entries))
            )
            ln = len(entries)
            if not ln:
                return -1
        policy = config.peer_selection
        if policy is _RAND:
            k = draw(ln)
        elif policy is _HEAD:
            k = 0
        else:
            k = ln - 1
        peer = self._vids[base + k] if entries is None else entries[k]
        if hooks is not None and node in hooks.attackers:
            peer = hooks.retarget(peer, draw)
        return peer

    def payload(self, sender: int, receiver: int, reply: bool, hooks=None):
        """The buffer ``sender`` ships to ``receiver``, as ``(ids, hops)``.

        ``merge(view, {(me, 0)})`` with the receiver-side
        ``increaseHopCount`` pre-applied (own descriptor 0 -> 1), for a
        pull reply or a pushed request; the empty buffer for a pull-only
        request.  Both lists are fresh and owned by the receiver.
        ``hooks.rewrite`` sees every attacker's buffer before it leaves.
        """
        if reply or self.config.push:
            row = self._row_of[sender]
            base = row * self.config.view_size
            end = base + self._vlen[row]
            ids = [sender] + self._vids[base:end].tolist()
            hops = [1] + [h + 1 for h in self._vhops[base:end]]
        else:
            ids = []
            hops = []
        if hooks is not None and sender in hooks.attackers:
            return hooks.rewrite(sender, receiver, ids, hops, reply)
        return ids, hops

    def receive(
        self, node: int, sender: int, ids, hops, hooks=None, sample=None
    ) -> None:
        """``node`` takes delivery of a buffer: validate, then merge.

        The passive thread's merge and the second half of the active
        thread alike.  Under ``hooks.drops`` an attacker discards the
        buffer unread; an empty buffer merges to a draw-free no-op on the
        reference node, so it is skipped.
        """
        if hooks is not None and node in hooks.attackers and hooks.drops:
            return
        if self.config.validate_descriptors:
            ids, hops = sanitize_indexed(
                ids, hops, node, sender, self.config.view_size
            )
        if ids:
            self._merge_into(node, ids, hops, sample)

    # -- the shared merge/truncate pipeline ---------------------------------

    def _merge_into(
        self, target: int, r_ids: List[int], r_hops: List[int], sample=None
    ) -> None:
        """``view <- selectView(merge(received, view))`` for one node.

        Replicates, in index space, the exact pipeline of
        ``GossipNode.handle_request`` / ``handle_response``: duplicate
        elimination keeping the lowest hop count with first-seen
        (received-first) tie order, a stable hop-count sort, the
        healer/swapper pre-truncation, and the head/rand/tail
        view-selection policy -- consuming the RNG exactly as the
        reference engine does.  ``r_hops`` arrive with the receiver-side
        ``increaseHopCount`` already applied; both input lists are fresh
        per exchange and are consumed destructively.

        ``sample`` optionally replaces the engine-RNG draw of the RAND
        truncation: a callable ``(m, c) -> list`` returning the chosen
        positions in sample order.  The sharded engine passes its keyed
        counter-based sampler here, so both execution families share this
        one merge implementation and cannot drift apart.

        The hot path leans on C-speed primitives: set intersection for
        duplicate detection (received and own views rarely overlap in
        more than a couple of addresses), and ``sorted(range(n), key=...)``
        whose range tie order reproduces the reference merge's stable
        first-seen ordering exactly.
        """
        config = self.config
        c = config.view_size
        vids = self._vids
        vhops = self._vhops
        row = self._row_of[target]
        base = row * c
        ln = self._vlen[row]
        own_ids = vids[base:base + ln]
        own_hops = vhops[base:base + ln]
        if not config.keep_self_descriptors:
            # The receiver's own address appears at most once in a payload
            # (sender self-descriptor + duplicate-free view) and never in
            # its own view; drop it like merge(..., exclude=me) does.
            if target in r_ids:
                k = r_ids.index(target)
                del r_ids[k]
                del r_hops[k]
        else:
            rset0 = set(r_ids)
            if len(rset0) != len(r_ids):
                # keep_self payloads can carry the sender's address twice
                # (fresh self-descriptor + stored copy).  Received hops
                # are ascending, so keeping the first occurrence keeps
                # the lowest hop count, as the reference merge does.
                seen = set()
                seen_add = seen.add
                dup_ids = r_ids
                dup_hops = r_hops
                r_ids = []
                r_hops = []
                for k, a in enumerate(dup_ids):
                    if a not in seen:
                        seen_add(a)
                        r_ids.append(a)
                        r_hops.append(dup_hops[k])
        swap_flags = None
        common = set(r_ids).intersection(own_ids)
        if common:
            # Shared addresses: keep the lowest hop count at the received
            # (first-seen) position; strictly fresher own copies make the
            # surviving entry own-origin for the swapper policy.  The
            # intersection of two partial views is almost always tiny, so
            # this is the only per-element interpreted loop on the path.
            if config.swapper:
                swap_flags = bytearray(len(r_ids))
            drop_idx = []
            for a in common:
                k = own_ids.index(a)
                drop_idx.append(k)
                h = own_hops[k]
                pos = r_ids.index(a)
                if h < r_hops[pos]:
                    r_hops[pos] = h
                    if swap_flags is not None:
                        swap_flags[pos] = 1
            drop_idx.sort(reverse=True)
            for k in drop_idx:
                del own_ids[k]
                del own_hops[k]
        n_r = len(r_ids)
        cids = r_ids
        cids += own_ids  # destructive extend: the payload is owned here
        chops = r_hops
        chops += own_hops
        n = len(cids)
        # stable hop-count sort; range order is the first-seen tie order.
        order = sorted(range(n), key=chops.__getitem__)
        m = n
        # healer/swapper pre-truncation (no-ops when H = S = 0).
        if m > c and (config.healer or config.swapper):
            surplus = m - c
            healer = config.healer
            if healer:
                drop = healer if healer < surplus else surplus
                del order[m - drop:]
                m -= drop
                surplus -= drop
            if surplus > 0 and config.swapper:
                to_drop = config.swapper if config.swapper < surplus else surplus
                kept = []
                for q in order:
                    if to_drop and (
                        q >= n_r
                        or (swap_flags is not None and swap_flags[q])
                    ):
                        to_drop -= 1
                    else:
                        kept.append(q)
                order = kept
                m = len(order)
        # view-selection truncation.
        if m > c:
            view_sel = config.view_selection
            if view_sel is ViewSelection.HEAD:
                del order[c:]
            elif view_sel is ViewSelection.TAIL:
                del order[:m - c]
            else:
                # RAND: same draws as sample(list, c); the stable re-sort
                # by hop count keeps the sample order on ties, like
                # select_rand's chosen.sort(key=hop_count).
                if sample is None:
                    picked = self.rng.sample(range(m), c)
                else:
                    picked = sample(m, c)
                picked.sort(key=lambda q: chops[order[q]])
                order = [order[q] for q in picked]
            m = c
        vids[base:base + m] = array("q", map(cids.__getitem__, order))
        vhops[base:base + m] = array("q", map(chops.__getitem__, order))
        self._vlen[row] = m
