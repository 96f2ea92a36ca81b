"""Sharded synchronous-rounds executor: one simulation across many cores.

The paper's experiments stop at N = 10^4..10^5 nodes, which is where the
single-core flat-array kernel tops out; this module shards **one**
population across K worker processes so a single run scales toward
N = 10^6.  The interned id space is partitioned round-robin
(``id % K``), every worker owns the view rows of its ids, and with the
C core and K > 1 all rows live in :mod:`multiprocessing.shared_memory`
segments mapped into every process -- the kernel is already contiguous
``array('q')`` rows (see :mod:`repro.simulation.arrayviews`), so this is
a storage-backend swap, not a protocol rewrite.

Execution model: BSP rounds, a third execution family
-----------------------------------------------------

The registry already carries two execution families over the same
protocol: the synchronous *cycle* family (``cycle``/``fast``/``live``)
and the asynchronous *event* family (``event``/``fast-event``).  Both
draw every random decision from one sequential MT19937 stream, and each
exchange reads the views that all earlier exchanges of the same cycle
wrote -- a chain of data dependencies that no partitioning can cut
without changing results.  A sharded executor therefore cannot be
byte-identical to either family; what it *can* be is deterministic in a
way that does not depend on how the work is split.

``fast-sharded`` runs the protocol as **synchronous rounds** (the BSP
model, and exactly the "synchronized gossip round" formulation the
paper's Section 2 starts from) in three phases with barriers between:

1. **Request.**  Every live node ages its view, selects a peer and emits
   one request record into its shard's outbox.  Nothing is merged yet:
   all requests of a round see the views as the previous round left
   them.
2. **Request delivery.**  Each shard gathers the requests addressed to
   its ids from *all* outboxes, sorts them into canonical
   ``(destination, source)`` order -- a total order, since a node sends
   at most one request per round -- and applies them sequentially:
   build the pull reply from the current view *before* merging (the
   passive thread of Figure 1), then merge the pushed payload.
3. **Reply delivery.**  Same gather/sort/merge, for the pull replies.

Every random decision (peer selection, RAND view truncation) comes from
a **stateless counter RNG**: a splitmix64 chain keyed by
``(phase_seed, purpose, round, node, source)``.  No draw depends on any
other draw, on iteration order, or on which process evaluates it -- so
the results are a pure function of ``(seed, protocol, scenario)`` and
are *identical for every shard count K*, both backends and every
process placement.

Two outcomes
------------

Which backend runs a round is the kernel's one rule
(:meth:`~repro.simulation.arrayviews.FlatArrayEngine._backend`), and it
is the only branch of :meth:`ShardedCycleEngine.run_cycle`:

- **The kernel's Python steps**, in this process, for every K: one
  round of ``select`` / ``payload`` / ``receive`` scheduled as the three
  phases and fed the keyed draws.  Without a C core, ``--shards K``
  therefore spawns nothing and allocates no shared memory; with one,
  the rounds that need a Python call (a ``reachable`` predicate only
  this process can evaluate) run here over the shared rows.
- **The C phases** (``fs_request_phase`` / ``fs_deliver`` in
  ``_fastcore.c``, the schedulers of ``k_select`` / ``k_payload`` /
  ``k_receive``), driven by one loop that makes the same three calls on
  one in-process shard for K = 1 and on the K workers for K > 1.  A
  :class:`~repro.simulation.churn.TemporaryPartition` window reaches all
  K shards as data.  Workers only ever run C.

The conformance suite pins ``K in {1, 2, 3}``, both backends and the
multi-process path to one another.

Shared-memory discipline
------------------------

Within a round, shard workers write only the view rows of the ids they
own (phase 1 ages own rows; phases 2/3 merge into destination rows,
and destinations are gathered per-shard), and read only frozen state:
``alive`` and ``row_of`` change exclusively between rounds, in the
parent (churn, observers, joins all happen at cycle barriers).  The
message boxes are single-writer (each shard fills its own outbox) and
are only read after the phase barrier.  So the protocol needs no locks
-- the barriers are the synchronization.

The parent process keeps the engine's public face: ``views()``,
observers, ``crash_random_nodes`` and the scenario machinery all run in
the parent against the same shared segments, and the engine's
``random.Random`` is consumed only by parent-side operations
(bootstrap, churn draws), exactly like the serial engines.
"""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing
import os
import weakref
from array import array
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.simulation._fastcore import (
    Accelerator,
    load_accelerator,
    unavailable_reason,
)
from repro.simulation.arrayviews import FlatArrayEngine

__all__ = [
    "ShardedCycleEngine",
    "ShmVector",
    "resolve_shards",
    "SHARDS_ENV_VAR",
]

SHARDS_ENV_VAR = "REPRO_SHARDS"


def resolve_shards(shards: Optional[int] = None) -> Optional[int]:
    """Resolve the shard-count knob: explicit > ``$REPRO_SHARDS`` > ``None``.

    Follows the ``--workers`` conventions: ``0`` means one shard per
    core, ``None`` (and an unset/empty environment variable) means "not
    requested" -- the engine then runs serially in-process.  Raises
    :class:`~repro.core.errors.ConfigurationError` on anything else.
    """
    if shards is None:
        raw = os.environ.get(SHARDS_ENV_VAR)
        if raw is None or not raw.strip():
            return None
        try:
            shards = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{SHARDS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if isinstance(shards, bool) or not isinstance(shards, int) or shards < 0:
        raise ConfigurationError(
            f"shards must be a non-negative integer, got {shards!r}"
        )
    if shards == 0:
        shards = os.cpu_count() or 1
    return shards


# ---------------------------------------------------------------------------
# Keyed counter RNG: the Python mirror of the C keyed draw stream in
# _fastcore.c.  Both implementations must match bit for bit -- the
# differential suite compares full overlays across backends.
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1

_FS_SELECT = 1
_FS_REQ = 2
_FS_REP = 3


def _sm64(z: int) -> int:
    """One splitmix64 output for counter ``z`` (mod 2^64 semantics)."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _fs_key(seed: int, purpose: int, rnd: int, a: int, b: int) -> int:
    """The per-decision key: a chained splitmix64 over the coordinates."""
    k = _sm64(seed + purpose)
    k = _sm64(k + rnd)
    k = _sm64(k + a)
    return _sm64(k + b)


def _fs_below(key: int, t: int, n: int) -> int:
    """Draw ``t`` of the stream under ``key``, reduced mod ``n``."""
    return _sm64(key + 1 + t) % n


def _keyed_sampler(key: int):
    """A ``(m, k) -> positions`` sampler fed by the counter stream.

    Same pool algorithm as the C ``sample_range`` over a keyed stream
    (and the same shape as CPython's ``random.sample`` pool path), so C
    and Python merges pick identical RAND truncations.
    """

    def sample(m: int, k: int) -> List[int]:
        pool = list(range(m))
        result = []
        for t in range(k):
            j = _fs_below(key, t, m - t)
            result.append(pool[j])
            pool[j] = pool[m - t - 1]
        return result

    return sample


# ---------------------------------------------------------------------------
# Shared-memory vector: the array('q'/'B') work-alike the engine swaps in
# for its flat storage when sharding, so every kernel primitive keeps
# working unchanged while the rows become visible to worker processes.
# ---------------------------------------------------------------------------


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker ownership.

    The resource tracker assumes whoever opens a segment owns it and
    unlinks leaked segments at process exit -- which would destroy the
    parent's live storage when a worker dies.  Python 3.13 grew
    ``track=False`` for exactly this; on older versions the attach-time
    registration is suppressed instead (spawn children share the
    parent's tracker process, so a worker-side ``unregister`` would
    cancel the parent's own registration).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class ShmVector:
    """A growable ``array('q')``/``array('B')`` work-alike in shared memory.

    Supports exactly the operations the flat-array kernel performs on
    its storage arrays: ``append``, ``frombytes``, integer and
    contiguous-slice get/set (slice reads return a real ``array`` copy,
    like slicing an ``array`` does), ``len`` and ``buffer_info`` for the
    C core.  Growth allocates a fresh, larger segment and retires the
    old one -- the segment *name* therefore changes on growth, which the
    engine uses as the signal to re-send attachment info to workers.
    """

    __slots__ = ("typecode", "itemsize", "_shm", "_raw", "_mv", "_addr",
                 "_len", "_owner")

    def __init__(self, typecode: str = "q", capacity: int = 1024) -> None:
        self.typecode = typecode
        self.itemsize = array(typecode).itemsize
        self._owner = True
        self._len = 0
        self._open(shared_memory.SharedMemory(
            create=True, size=max(1, capacity) * self.itemsize))

    @classmethod
    def attach(cls, name: str, typecode: str) -> "ShmVector":
        """Map an existing segment read-write; length = full capacity."""
        vec = cls.__new__(cls)
        vec.typecode = typecode
        vec.itemsize = array(typecode).itemsize
        vec._owner = False
        vec._open(_attach_shm(name))
        vec._len = vec._shm.size // vec.itemsize
        return vec

    def _open(self, shm: shared_memory.SharedMemory) -> None:
        self._shm = shm
        self._raw = shm.buf
        # The OS may round the segment up to a page, always 8-aligned.
        usable = (shm.size // self.itemsize) * self.itemsize
        self._mv = shm.buf[:usable].cast(self.typecode)
        self._addr = ctypes.addressof(ctypes.c_char.from_buffer(shm.buf))

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    def capacity(self) -> int:
        return self._shm.size // self.itemsize

    def __len__(self) -> int:
        return self._len

    def buffer_info(self) -> Tuple[int, int]:
        return (self._addr, self._len)

    def memview(self) -> memoryview:
        """The live elements as a typed memoryview (zero-copy; release
        it before the next growth, like any export of an ``array``)."""
        return self._mv[:self._len]

    def append(self, value: int) -> None:
        if self._len >= self.capacity():
            self._grow(self._len + 1)
        self._mv[self._len] = value
        self._len += 1

    def frombytes(self, data: bytes) -> None:
        n = len(data) // self.itemsize
        if self._len + n > self.capacity():
            self._grow(self._len + n)
        start = self._len * self.itemsize
        self._raw[start:start + len(data)] = data
        self._len += n

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, _ = index.indices(self._len)
            result = array(self.typecode)
            if stop > start:
                result.frombytes(
                    self._raw[start * self.itemsize:stop * self.itemsize]
                )
            return result
        return self._mv[index]

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            start, _, _ = index.indices(self._len)
            if not isinstance(value, (array, bytes, bytearray, memoryview)):
                value = array(self.typecode, value)
            src = memoryview(value).cast("B")
            base = start * self.itemsize
            self._raw[base:base + len(src)] = src
        else:
            self._mv[index] = value

    def _grow(self, needed: int) -> None:
        new_cap = max(needed, 2 * self.capacity(), 1024)
        new = shared_memory.SharedMemory(
            create=True, size=new_cap * self.itemsize)
        used = self._len * self.itemsize
        if used:
            new.buf[:used] = self._raw[:used]
        old = self._shm
        self._release_views()
        old.close()
        old.unlink()
        self._open(new)

    def _release_views(self) -> None:
        if self._mv is not None:
            self._mv.release()
        if self._raw is not None:
            self._raw.release()
        self._mv = self._raw = None

    def close(self) -> None:
        """Unmap the segment (and destroy it when this side created it)."""
        if self._shm is None:
            return
        self._release_views()
        shm = self._shm
        self._shm = None
        shm.close()
        if self._owner:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ShmVector({self.typecode!r}, len={self._len}, "
            f"capacity={self.capacity() if self._shm else 0})"
        )


# ---------------------------------------------------------------------------
# The C phases of one shard: `fs_request_phase` / `fs_deliver` in
# _fastcore.c over the flat storage of ``store`` -- a worker's
# _ShmKernel shell, or the engine itself when K = 1.  A message record
# is int64 [src, dst, npay, ids[c+1], hops[c+1]]; payload hop counts
# carry the receiver-side increaseHopCount already applied.
# ---------------------------------------------------------------------------


class _ShardPhases:
    """One shard's side of the round protocol the engine broadcasts
    (:func:`_broadcast`):

    - ``("req", rnd, n_ids)`` -> ``(records, failed)``: phase 1 into
      this shard's request box;
    - ``("dreq", rnd, counts)`` / ``("drep", rnd, counts)`` ->
      ``(completed, failed, replies)``: phase 2 / 3 over every shard's
      request / reply box, ``counts`` records each.

    ``boxes`` (request boxes, reply boxes: one per shard, anything with
    ``buffer_info``) and ``groups`` (the open partition, or ``None``)
    are set at the barrier.  In-process it also speaks the pipe's
    ``send`` / ``recv``, so one round loop serves both placements.
    """

    def __init__(self, store, accel, shard, nshards, phase_seed):
        self.store = store
        self.accel = accel
        self.shard = shard
        self.nshards = nshards
        self.phase_seed = phase_seed
        self.boxes = ((), ())
        self.groups = None
        self._answer = None

    def run(self, op, rnd, arg):
        store, accel, shard = self.store, self.accel, self.shard
        pointer = Accelerator.pointer
        req_boxes, rep_boxes = self.boxes
        if op == "req":
            store._accel_setup(accel, self.groups)
            failed = array("q", (0,))
            n = accel.shard_request(
                store._ctx, self.phase_seed, rnd, shard, self.nshards, arg,
                pointer(req_boxes[shard].buffer_info()[0]),
                pointer(failed.buffer_info()[0]))
            return int(n), failed[0]
        is_request = op == "dreq"
        boxes = req_boxes if is_request else rep_boxes
        do_reply = is_request and store.config.pull
        store._accel_setup(accel)
        addrs = array("q", [box.buffer_info()[0] for box in boxes])
        counts = array("q", arg)
        out = array("q", (0, 0, 0))
        accel.shard_deliver(
            store._ctx, self.phase_seed, rnd, int(is_request), shard,
            self.nshards,
            pointer(addrs.buffer_info()[0]),
            pointer(counts.buffer_info()[0]),
            len(boxes),
            int(do_reply),
            pointer(rep_boxes[shard].buffer_info()[0]) if do_reply else None,
            pointer(out.buffer_info()[0]),
        )
        return tuple(out)

    def send(self, cmd) -> None:
        self._answer = self.run(*cmd)

    def recv(self):
        return self._answer


def _broadcast(shards, *cmd):
    """Send ``cmd`` to every shard, then collect the answers in shard
    order: the shards run the phase concurrently, the last answer is
    the barrier."""
    for shard in shards:
        shard.send(cmd)
    return [shard.recv() for shard in shards]


# ---------------------------------------------------------------------------
# The shard worker.
# ---------------------------------------------------------------------------

_STORE_ROLES = ("vids", "vhops", "vlen", "row_of", "alive")


class _ShmKernel:
    """The worker-side stand-in for the engine: the flat storage as
    attached segments, the worker's own C-side context, and just enough
    attributes for ``_accel_setup`` -- borrowed unbound from
    :class:`FlatArrayEngine` -- to register them with the C core."""

    shuffle_each_cycle = False
    _accel_setup = FlatArrayEngine._accel_setup

    def __init__(
        self, config: ProtocolConfig, omniscient: bool, accel: Accelerator
    ) -> None:
        self.config = config
        self.omniscient_peer_selection = omniscient
        self._ctx = accel.context(self)
        self._vids = None
        self._vhops = None
        self._vlen = None
        self._row_of = None
        self._alive = None


def _worker_attach(shell, attachments, names):
    """(Re)attach whatever segments changed; return the box lists."""
    for role in _STORE_ROLES:
        name = names[role]
        current = attachments.get(role)
        if current is not None and current.name == name:
            continue
        if current is not None:
            current.close()
        attachments[role] = ShmVector.attach(
            name, "B" if role == "alive" else "q")
    shell._vids = attachments["vids"]
    shell._vhops = attachments["vhops"]
    shell._vlen = attachments["vlen"]
    shell._row_of = attachments["row_of"]
    shell._alive = attachments["alive"]
    for kind in ("req", "rep"):
        for k, name in enumerate(names[kind]):
            key = (kind, k)
            current = attachments.get(key)
            if current is not None and current.name == name:
                continue
            if current is not None:
                current.close()
            attachments[key] = ShmVector.attach(name, "q")
    req = [attachments[("req", k)] for k in range(len(names["req"]))]
    rep = [attachments[("rep", k)] for k in range(len(names["rep"]))]
    return req, rep


def _worker_main(shard, nshards, conn, config, phase_seed, omniscient):
    """Shard worker loop: strict request/response over the pipe.

    ``("segs", names)`` -> ``"ok"`` after (re)attaching the storage and
    the boxes and taking the open partition; ``("stop",)`` exits; every
    other command is a C phase (:class:`_ShardPhases`).
    """
    accel = load_accelerator()
    if accel is None:
        raise RuntimeError("shard worker: " + unavailable_reason())
    shell = _ShmKernel(config, omniscient, accel)
    phases = _ShardPhases(shell, accel, shard, nshards, phase_seed)
    attachments: Dict[object, ShmVector] = {}
    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            if cmd[0] == "stop":
                break
            if cmd[0] == "segs":
                phases.boxes = _worker_attach(shell, attachments, cmd[1])
                phases.groups = cmd[1]["groups"]
                conn.send("ok")
            else:
                conn.send(phases.run(*cmd))
    finally:
        for vec in attachments.values():
            vec.close()
        conn.close()


def _shutdown_workers(conns, procs):
    """Finalizer: ask workers to exit, then make sure they did."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError):
            pass
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=2)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2)


def _unlink_segments(segments):
    """Finalizer: destroy the message-box segments."""
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


def _dst_src(message):
    return (message[1], message[0])


class ShardedCycleEngine(FlatArrayEngine):
    """Synchronous-rounds executor, optionally sharded across processes.

    Registered as engine ``fast-sharded``.  See the module docstring for
    the execution model; operationally:

    - ``shards=None`` (or 1): one shard, in this process.
    - ``shards=K>1``: with the C core, the flat storage lives in shared
      memory, K spawned workers run the C phases in lockstep, and the
      parent only moves counters and barriers.  The rounds the backend
      rule gives the kernel's Python steps -- every round, without a C
      core -- run in this process.
    - ``shards=0``: one shard per core (``--workers`` convention).

    The engine's ``random.Random`` is consumed only by parent-side
    population operations (bootstrap, churn, trace joins), never by the
    round phases, so ``views()``, counters and digests are a pure
    function of ``(seed, protocol, scenario)`` -- independent of K, of
    the backend and of the process placement, partition windows
    included.
    """

    family = "sharded"
    features = frozenset({"shards"})
    shuffle_each_cycle = False
    """Round phases are order-independent by construction; the engine
    RNG is never drawn for activation order (keeps parent-side draws
    identical across shard counts)."""

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        seed: Optional[int] = None,
        rng=None,
        node_factory=None,
        omniscient_peer_selection: bool = True,
        accelerate: Optional[bool] = None,
        shards: Optional[int] = None,
    ) -> None:
        super().__init__(
            config=config,
            seed=seed,
            rng=rng,
            node_factory=node_factory,
            omniscient_peer_selection=omniscient_peer_selection,
            accelerate=accelerate,
        )
        resolved = resolve_shards(shards)
        self.shards = 1 if resolved is None else resolved
        # The keyed streams hang off a digest of the initial RNG state:
        # same seed -> same phase_seed, without consuming a single draw.
        digest = hashlib.sha256(repr(self.rng.getstate()).encode()).digest()
        self._phase_seed = int.from_bytes(digest[:8], "little")
        if self.shards > 1 and self._accel is not None:
            # Storage-backend swap: same kernel, rows now visible to
            # workers.  The population is empty here, so nothing to copy.
            self._vids = ShmVector("q")
            self._vhops = ShmVector("q")
            self._vlen = ShmVector("q")
            self._row_of = ShmVector("q")
            self._alive = ShmVector("B")
            self._buffer = ShmVector.memview
        self._conns: List = []
        self._worker_finalizer = None
        # (request boxes, reply boxes), one per shard, and their records.
        self._boxes: Tuple[List, List] = ([], [])
        self._box_finalizer = None
        self._req_records = 0
        self._rep_records = 0
        self._sent_names = None

    # -- execution ---------------------------------------------------------

    def run_cycle(self) -> None:
        """Execute one synchronous round (see the module docstring)."""
        self._notify_before_cycle()
        _, native = self._backend()
        if native is None:
            completed, failed = self._run_round_py(self.cycle)
        else:
            completed, failed = self._run_round_c(self.cycle, native[0])
        self.completed_exchanges += completed
        self.failed_exchanges += failed
        self.cycle += 1
        self._notify_after_cycle()

    def run(self, cycles: int) -> None:
        """Execute ``cycles`` consecutive rounds."""
        for _ in range(cycles):
            self.run_cycle()

    # -- the kernel's Python steps, in this process ------------------------

    def _run_round_py(self, rnd: int):
        messages, cut = self._phase_request_py(rnd)
        completed, failed, replies = self._phase_deliver_py(
            rnd, True, messages)
        if replies:
            self._phase_deliver_py(rnd, False, replies)
        return completed, cut + failed

    def _phase_request_py(self, rnd: int):
        """Phase 1: every live node ages, selects and emits a request
        record ``(src, dst, payload_ids, payload_hops)``.

        Returns ``(messages, failed)``; ``failed`` counts the requests a
        ``reachable`` predicate cut -- dead destinations are counted at
        delivery.
        """
        seed = self._phase_seed
        alive = self._alive
        addr_of = self._addr_of
        reachable = self.reachable
        failed = 0
        messages = []

        def draw(n):
            # the keyed selection draw of the node the loop is at: `i` is
            # read when `select` calls back, within the same iteration.
            return _fs_below(_fs_key(seed, _FS_SELECT, rnd, i, 0), 0, n)

        for i in range(len(addr_of)):
            if not alive[i]:
                continue
            p = self.select(i, draw)
            if p < 0:
                continue
            if reachable is not None and not reachable(addr_of[i], addr_of[p]):
                failed += 1
                continue
            messages.append((i, p, *self.payload(i, p, False)))
        return messages, failed

    def _phase_deliver_py(self, rnd: int, is_request: bool, messages):
        """Phases 2/3: apply ``messages`` in ``(dst, src)`` order.

        Returns ``(completed, failed, replies)``.  For requests under
        pull, the reply snapshot is taken *before* the merge, exactly
        like the passive thread of Figure 1; counters only move on the
        request phase.
        """
        seed = self._phase_seed
        alive = self._alive
        purpose = _FS_REQ if is_request else _FS_REP
        do_reply = is_request and self.config.pull
        completed = failed = 0
        replies = []
        for src, dst, pids, phops in sorted(messages, key=_dst_src):
            if not alive[dst]:
                if is_request:
                    failed += 1
                continue
            if do_reply:
                replies.append((dst, src, *self.payload(dst, src, True)))
            if pids:
                key = _fs_key(seed, purpose, rnd, dst, src)
                self.receive(dst, src, pids, phops, sample=_keyed_sampler(key))
            if is_request:
                completed += 1
        return completed, failed, replies

    # -- the C phases, on K shards -----------------------------------------

    def _run_round_c(self, rnd: int, groups):
        shards = self._c_shards(groups)
        counts, cut = zip(*_broadcast(shards, "req", rnd, len(self._addr_of)))
        completed, failed, replies = zip(
            *_broadcast(shards, "dreq", rnd, counts))
        if any(replies):
            _broadcast(shards, "drep", rnd, replies)
        return sum(completed), sum(cut) + sum(failed)

    def _c_shards(self, groups):
        """The shards of this round's C phases, with their boxes and the
        open partition ``groups``: one in this process for K = 1, the
        workers otherwise.

        Boxes too small for the population are replaced first.  Any new
        segment name (new boxes, or a storage vector that moved to a
        larger segment) or partition is pushed to the workers before the
        next phase starts; ``groups`` is small next to the rows, so it
        rides that handshake by value, and only when it changed.
        """
        n_ids = len(self._addr_of)
        per_shard = -(-n_ids // self.shards)
        if self._req_records < per_shard or self._rep_records < n_ids:
            self._new_boxes(per_shard, n_ids)
        if self.shards == 1:
            local = _ShardPhases(self, self._accel, 0, 1, self._phase_seed)
            local.boxes, local.groups = self._boxes, groups
            return (local,)
        self._ensure_workers()
        req, rep = self._boxes
        names = {
            "vids": self._vids.name,
            "vhops": self._vhops.name,
            "vlen": self._vlen.name,
            "row_of": self._row_of.name,
            "alive": self._alive.name,
            "req": tuple(shm.name for shm in req),
            "rep": tuple(shm.name for shm in rep),
            "groups": groups,
        }
        if names != self._sent_names:
            _broadcast(self._conns, "segs", names)
            self._sent_names = names
        return self._conns

    def _new_boxes(self, per_shard: int, n_ids: int) -> None:
        """Replace the message boxes, sized for the worst case -- every
        node sends one request, and all of them could target one shard --
        so no phase can overflow them: process-local for K = 1, shared
        segments otherwise; reply boxes only under pull."""
        self._drop_boxes()
        k = self.shards
        record = 8 * (2 * (self.config.view_size + 1) + 3)
        self._req_records = max(256, per_shard + per_shard // 4)
        self._rep_records = max(256, n_ids + n_ids // 4)
        sizes = [record * self._req_records] * k
        if self.config.pull:
            sizes += [record * self._rep_records] * k
        if k == 1:
            boxes = [array("q", bytes(size)) for size in sizes]
        else:
            boxes = [
                shared_memory.SharedMemory(create=True, size=size)
                for size in sizes
            ]
            self._box_finalizer = weakref.finalize(
                self, _unlink_segments, boxes)
        self._boxes = (boxes[:k], boxes[k:])

    def _drop_boxes(self) -> None:
        if self._box_finalizer is not None:
            self._box_finalizer()
            self._box_finalizer = None
        self._boxes = ([], [])
        self._req_records = 0
        self._rep_records = 0

    def _ensure_workers(self) -> None:
        if self._conns:
            return
        ctx = multiprocessing.get_context("spawn")
        conns, procs = [], []
        for k in range(self.shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(k, self.shards, child_conn, self.config,
                      self._phase_seed, self.omniscient_peer_selection),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        self._conns = conns
        self._worker_finalizer = weakref.finalize(
            self, _shutdown_workers, conns, procs)

    def close(self) -> None:
        """Stop the shard workers and release the message boxes.

        The shared view storage stays mapped (``views()`` and the other
        introspection paths keep working); a later ``run_cycle`` simply
        respawns workers and reallocates boxes.
        """
        if self._worker_finalizer is not None:
            self._worker_finalizer()
            self._worker_finalizer = None
        self._conns = []
        self._drop_boxes()
        self._sent_names = None
