"""Sharded synchronous-rounds executor: one simulation across many cores.

The paper's experiments stop at N = 10^4..10^5 nodes, which is where the
single-core flat-array kernel tops out; this module shards **one**
population across K worker processes so a single run scales toward
N = 10^6.  The interned id space is partitioned round-robin
(``id % K``), every worker owns the view rows of its ids, and all rows
live in :mod:`multiprocessing.shared_memory` segments mapped into every
process -- the kernel is already contiguous ``array('q')`` rows (see
:mod:`repro.simulation.arrayviews`), so this is a storage-backend swap,
not a protocol rewrite.

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
are *identical for every shard count K*, every backend (the kernel's
Python steps, or the C phases that schedule ``k_select`` / ``k_payload``
/ ``k_receive`` in ``_fastcore.c``) and every process placement.  The
differential suite pins ``K in {1, 2, 4}``, both backends and the
multi-process path to the in-process serial execution of the same
rounds.

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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.simulation._fastcore import Accelerator, load_accelerator
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
# The round phases, pure-Python backend: the kernel's exchange steps
# (`FlatArrayEngine.select` / `payload` / `receive`) scheduled as BSP
# phases and fed the keyed draws.  The C phases `fs_request_phase` /
# `fs_deliver` in _fastcore.c are the same schedulers over the C steps
# `k_select` / `k_payload` / `k_receive`; `store` is either the engine
# itself (serial path) or a worker's _ShmKernel shell -- both expose the
# steps.
# ---------------------------------------------------------------------------

# Message record: (src, dst, payload_ids, payload_hops); payload hop
# counts carry the receiver-side increaseHopCount already applied, like
# the serial kernel's payloads.  The shared-memory boxes pack the same
# record as int64 [src, dst, npay, ids[c+1], hops[c+1]].


def _phase_request_py(store, seed, rnd, shard, nshards, n_ids,
                      reachable=None):
    """Phase 1 for one shard's ids: age, select, emit request records.

    Returns ``(messages, failed)``; ``failed`` is only nonzero under a
    ``reachable`` predicate, which only the parent's serial round passes
    (the C phases take a partition as data instead) -- dead destinations
    are counted at delivery.
    """
    alive = store._alive
    addr_of = store._addr_of if reachable is not None else None
    failed = 0
    messages = []

    def draw(n):
        # the keyed selection draw of the node the loop is at: `i` is
        # read when `select` calls back, within the same iteration.
        return _fs_below(_fs_key(seed, _FS_SELECT, rnd, i, 0), 0, n)

    for i in range(shard, n_ids, nshards):
        if not alive[i]:
            continue
        p = store.select(i, draw)
        if p < 0:
            continue
        if reachable is not None and not reachable(addr_of[i], addr_of[p]):
            failed += 1
            continue
        messages.append((i, p, *store.payload(i, p, False)))
    return messages, failed


def _dst_src(message):
    return (message[1], message[0])


def _phase_deliver_py(store, seed, rnd, is_request, messages, do_reply):
    """Phases 2/3: apply ``messages`` to this store's ids in (dst, src) order.

    Returns ``(completed, failed, replies)``.  For requests under pull
    (``do_reply``), the reply snapshot is taken *before* the merge,
    exactly like the passive thread of Figure 1; counters only move on
    the request phase.
    """
    alive = store._alive
    purpose = _FS_REQ if is_request else _FS_REP
    completed = failed = 0
    replies = []
    for src, dst, pids, phops in sorted(messages, key=_dst_src):
        if not alive[dst]:
            if is_request:
                failed += 1
            continue
        if do_reply:
            replies.append((dst, src, *store.payload(dst, src, True)))
        if pids:
            key = _fs_key(seed, purpose, rnd, dst, src)
            store.receive(
                dst, src, pids, phops, sample=_keyed_sampler(key)
            )
        if is_request:
            completed += 1
    return completed, failed, replies


def _pack_records(box, stride, c, messages):
    """Write ``messages`` into a shared box as int64 records; return count."""
    w = 0
    for src, dst, pids, phops in messages:
        off = w * stride
        box[off] = src
        box[off + 1] = dst
        n = len(pids)
        box[off + 2] = n
        if n:
            box[off + 3:off + 3 + n] = array("q", pids)
            hoff = off + 3 + c + 1
            box[hoff:hoff + n] = array("q", phops)
        w += 1
    return w


def _unpack_for_shard(boxes, counts, stride, c, shard, nshards):
    """Collect this shard's records from all boxes as message tuples."""
    messages = []
    for box, count in zip(boxes, counts):
        for k in range(count):
            off = k * stride
            dst = box[off + 1]
            if dst % nshards != shard:
                continue
            npay = box[off + 2]
            hoff = off + 3 + c + 1
            messages.append((
                box[off],
                dst,
                list(box[off + 3:off + 3 + npay]),
                list(box[hoff:hoff + npay]),
            ))
    return messages


def _request_c(accel, store, groups, seed, rnd, shard, nshards, n_ids, box):
    """Run `fs_request_phase` into ``box`` under the open partition
    ``groups`` (or ``None``); returns ``(records, failed)``."""
    store._accel_setup(accel, groups)
    failed = array("q", (0,))
    n = accel.shard_request(
        store._ctx, seed, rnd, shard, nshards, n_ids,
        Accelerator.pointer(box.buffer_info()[0]),
        Accelerator.pointer(failed.buffer_info()[0]))
    return int(n), failed[0]


def _deliver_c(accel, store, seed, rnd, is_request, shard, nshards,
               boxes, counts, do_reply, reply_box):
    """Run `fs_deliver` over ``boxes`` (anything with ``buffer_info``)."""
    store._accel_setup(accel)
    addrs = array("q", [box.buffer_info()[0] for box in boxes])
    cnts = array("q", counts)
    out = array("q", (0, 0, 0))
    pointer = Accelerator.pointer
    accel.shard_deliver(
        store._ctx, seed, rnd, 1 if is_request else 0, shard, nshards,
        pointer(addrs.buffer_info()[0]),
        pointer(cnts.buffer_info()[0]),
        len(boxes),
        1 if do_reply else 0,
        pointer(reply_box.buffer_info()[0]) if reply_box is not None else None,
        pointer(out.buffer_info()[0]),
    )
    return out


# ---------------------------------------------------------------------------
# The shard worker.
# ---------------------------------------------------------------------------

_STORE_ROLES = ("vids", "vhops", "vlen", "row_of", "alive")


class _ShmKernel:
    """The worker-side stand-in for the engine.

    Just enough flat-array attributes for the kernel's exchange steps
    and ``_accel_setup`` -- borrowed unbound from
    :class:`FlatArrayEngine` -- to run against attached segments, plus
    (with the C core) the worker's own C-side context.
    ``rng`` stays ``None`` on purpose: every draw on the sharded path is
    keyed, so touching the engine RNG from a worker would be a bug, and
    fails loudly.
    """

    shuffle_each_cycle = False
    _maybe_dead_refs = True  # workers never see the parent's flag: filter
    select = FlatArrayEngine.select
    payload = FlatArrayEngine.payload
    receive = FlatArrayEngine.receive
    _merge_into = FlatArrayEngine._merge_into
    _accel_setup = FlatArrayEngine._accel_setup

    def __init__(
        self,
        config: ProtocolConfig,
        omniscient: bool,
        accel: Optional[Accelerator],
    ) -> None:
        self.config = config
        self.omniscient_peer_selection = omniscient
        self.rng = None
        self._ctx = accel.context(self) if accel is not None else None
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


def _worker_main(shard, nshards, conn, config, phase_seed, omniscient,
                 use_accel):
    """Shard worker loop: strict request/response over the pipe.

    Commands: ``("segs", names)`` -> ``"ok"`` after (re)attaching;
    ``("req", rnd, n_ids)`` -> ``(request records, failed)``;
    ``("dreq", rnd, counts)`` -> ``(completed, failed, n_replies)``;
    ``("drep", rnd, counts)`` -> ``"ok"``; ``("stop",)`` exits.
    """
    accel = load_accelerator() if use_accel else None
    shell = _ShmKernel(config, omniscient, accel)
    attachments: Dict[object, ShmVector] = {}
    groups = None  # the open partition, by value in the "segs" handshake
    req_boxes: List[ShmVector] = []
    rep_boxes: List[ShmVector] = []
    c = config.view_size
    stride = 2 * (c + 1) + 3
    pull = config.pull
    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            op = cmd[0]
            if op == "stop":
                break
            if op == "segs":
                req_boxes, rep_boxes = _worker_attach(
                    shell, attachments, cmd[1])
                groups = cmd[1]["groups"]
                conn.send("ok")
            elif op == "req":
                rnd, n_ids = cmd[1], cmd[2]
                box = req_boxes[shard]
                if accel is not None:
                    conn.send(_request_c(
                        accel, shell, groups, phase_seed, rnd, shard,
                        nshards, n_ids, box))
                else:
                    messages, failed = _phase_request_py(
                        shell, phase_seed, rnd, shard, nshards, n_ids)
                    conn.send(
                        (_pack_records(box, stride, c, messages), failed))
            elif op == "dreq":
                rnd, counts = cmd[1], cmd[2]
                if accel is not None:
                    out = _deliver_c(
                        accel, shell, phase_seed, rnd, True, shard,
                        nshards, req_boxes, counts, pull,
                        rep_boxes[shard] if pull else None)
                    conn.send((int(out[0]), int(out[1]), int(out[2])))
                else:
                    messages = _unpack_for_shard(
                        req_boxes, counts, stride, c, shard, nshards)
                    completed, failed, replies = _phase_deliver_py(
                        shell, phase_seed, rnd, True, messages, pull)
                    n = _pack_records(rep_boxes[shard], stride, c, replies)
                    conn.send((completed, failed, n))
            elif op == "drep":
                rnd, counts = cmd[1], cmd[2]
                if accel is not None:
                    _deliver_c(
                        accel, shell, phase_seed, rnd, False, shard,
                        nshards, rep_boxes, counts, False, None)
                else:
                    messages = _unpack_for_shard(
                        rep_boxes, counts, stride, c, shard, nshards)
                    _phase_deliver_py(
                        shell, phase_seed, rnd, False, messages, False)
                conn.send("ok")
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


class ShardedCycleEngine(FlatArrayEngine):
    """Synchronous-rounds executor, optionally sharded across processes.

    Registered as engine ``fast-sharded``.  See the module docstring for
    the execution model; operationally:

    - ``shards=None`` (or 1): the rounds run serially in-process, C core
      when available.  This is the semantic reference the differential
      suite pins everything else to.
    - ``shards=K>1``: the flat storage lives in shared memory, K spawned
      workers execute the phases in lockstep, and the parent only moves
      counters and barriers.  Results are **identical** to the serial
      rounds -- the keyed RNG makes every draw placement-independent.
    - ``shards=0``: one shard per core (``--workers`` convention).

    The engine's ``random.Random`` is consumed only by parent-side
    population operations (bootstrap, churn, trace joins), never by the
    round phases, so ``views()``, counters and digests are a pure
    function of ``(seed, protocol, scenario)`` -- independent of K and
    of the backend.

    Which phases run is the kernel's one rule
    (:meth:`~repro.simulation.arrayviews.FlatArrayEngine._backend`):
    the C phases, a :class:`~repro.simulation.churn.TemporaryPartition`
    window handed to all K shards as data; or the kernel's Python steps
    -- in the workers too, except that a round under a ``reachable``
    predicate runs serially in the parent, the only process that can
    call it.  The semantics are identical, so partitions too are
    K-independent.
    """

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
        if self.config is not None and self.config.validate_descriptors:
            raise ConfigurationError(
                "the sharded engine does not support "
                "validate_descriptors; use the cycle, fast or event "
                "family for defended protocols"
            )
        resolved = resolve_shards(shards)
        self.shards = 1 if resolved is None else resolved
        # The keyed streams hang off a digest of the initial RNG state:
        # same seed -> same phase_seed, without consuming a single draw.
        digest = hashlib.sha256(repr(self.rng.getstate()).encode()).digest()
        self._phase_seed = int.from_bytes(digest[:8], "little")
        if self.shards > 1:
            # Storage-backend swap: same kernel, rows now visible to
            # workers.  The population is empty here, so nothing to copy.
            self._vids = ShmVector("q")
            self._vhops = ShmVector("q")
            self._vlen = ShmVector("q")
            self._row_of = ShmVector("q")
            self._alive = ShmVector("B")
            self._buffer = ShmVector.memview
        self._conns: List = []
        self._procs: List = []
        self._worker_finalizer = None
        self._req_shm: List[shared_memory.SharedMemory] = []
        self._rep_shm: List[shared_memory.SharedMemory] = []
        self._box_finalizer = None
        self._req_records = 0
        self._rep_records = 0
        self._sent_names = None
        # Serial-path scratch boxes (plain process-local arrays).
        self._ser_req: Optional[array] = None
        self._ser_rep: Optional[array] = None
        self._ser_cap = 0

    # -- execution ---------------------------------------------------------

    def run_cycle(self) -> None:
        """Execute one synchronous round (see the module docstring)."""
        self._notify_before_cycle()
        rnd = self.cycle
        pull = self.config.pull
        _, native = self._backend()
        groups = native[0] if native is not None else None
        if native is None and (self.shards == 1 or self.reachable is not None):
            # the Python steps; a predicate only this process can call
            completed, failed = self._run_round_serial_py(rnd, pull)
        elif self.shards > 1:
            completed, failed = self._run_round_parallel(rnd, pull, groups)
        else:
            completed, failed = self._run_round_serial_c(rnd, pull, groups)
        self.completed_exchanges += completed
        self.failed_exchanges += failed
        self.cycle += 1
        self._notify_after_cycle()

    def run(self, cycles: int) -> None:
        """Execute ``cycles`` consecutive rounds."""
        for _ in range(cycles):
            self.run_cycle()

    # -- serial rounds (the semantic reference) ----------------------------

    def _run_round_serial_py(self, rnd: int, pull: bool):
        n_ids = len(self._addr_of)
        messages, failed0 = _phase_request_py(
            self, self._phase_seed, rnd, 0, 1, n_ids, self.reachable)
        completed, failed, replies = _phase_deliver_py(
            self, self._phase_seed, rnd, True, messages, pull)
        if replies:
            _phase_deliver_py(
                self, self._phase_seed, rnd, False, replies, False)
        return completed, failed0 + failed

    def _run_round_serial_c(self, rnd: int, pull: bool, groups):
        accel = self._accel
        n_ids = len(self._addr_of)
        c = self.config.view_size
        stride = 2 * (c + 1) + 3
        if self._ser_cap < n_ids:
            self._ser_cap = max(1024, n_ids + n_ids // 4)
            nbytes = 8 * stride * self._ser_cap
            self._ser_req = array("q", bytes(nbytes))
            self._ser_rep = array("q", bytes(nbytes)) if pull else None
        nreq, cut = _request_c(
            accel, self, groups, self._phase_seed, rnd, 0, 1, n_ids,
            self._ser_req)
        out = _deliver_c(
            accel, self, self._phase_seed, rnd, True, 0, 1,
            (self._ser_req,), (nreq,), pull, self._ser_rep if pull else None)
        completed, failed, nrep = int(out[0]), int(out[1]), int(out[2])
        if pull and nrep:
            _deliver_c(
                accel, self, self._phase_seed, rnd, False, 0, 1,
                (self._ser_rep,), (nrep,), False, None)
        return completed, cut + failed

    # -- parallel rounds ---------------------------------------------------

    def _run_round_parallel(self, rnd: int, pull: bool, groups):
        self._ensure_workers()
        self._sync_shared(groups)
        n_ids = len(self._addr_of)
        conns = self._conns
        for conn in conns:
            conn.send(("req", rnd, n_ids))
        counts, cut = zip(*[conn.recv() for conn in conns])
        for conn in conns:
            conn.send(("dreq", rnd, counts))
        completed = 0
        failed = sum(cut)
        rep_counts = []
        for conn in conns:
            done, lost, nrep = conn.recv()
            completed += done
            failed += lost
            rep_counts.append(nrep)
        if pull and any(rep_counts):
            for conn in conns:
                conn.send(("drep", rnd, rep_counts))
            for conn in conns:
                conn.recv()
        return completed, failed

    def _ensure_workers(self) -> None:
        if self._conns:
            return
        use_accel = self._accel is not None
        if use_accel:
            # Compile/warm the shared C-core cache once, in the parent,
            # so K spawning workers don't race the compiler (the same
            # pre-warm run_plan gives its pool workers).
            from repro.workloads.runtime import warm_shared_caches

            warm_shared_caches(("fast-sharded",))
        ctx = multiprocessing.get_context("spawn")
        conns, procs = [], []
        for k in range(self.shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(k, self.shards, child_conn, self.config,
                      self._phase_seed, self.omniscient_peer_selection,
                      use_accel),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        self._conns = conns
        self._procs = procs
        self._worker_finalizer = weakref.finalize(
            self, _shutdown_workers, conns, procs)

    def _sync_shared(self, groups) -> None:
        """Barrier bookkeeping: box capacity, worker attachments and the
        open partition (``groups``: small next to the rows, so it rides
        the handshake by value and only when it changed).

        Message boxes are sized for the worst case -- every node sends
        one request, and all of them could target one shard -- so no
        phase can overflow them.  Growth (population grew, or a storage
        vector moved to a larger segment and changed names) is detected
        here and pushed to the workers before the next phase starts.
        """
        n_ids = len(self._addr_of)
        nshards = self.shards
        c = self.config.view_size
        stride = 2 * (c + 1) + 3
        per_shard = (n_ids + nshards - 1) // nshards
        if self._req_records < per_shard or self._rep_records < n_ids:
            if self._box_finalizer is not None:
                self._box_finalizer.detach()
                self._box_finalizer = None
            _unlink_segments(self._req_shm + self._rep_shm)
            self._req_records = max(256, per_shard + per_shard // 4)
            self._rep_records = max(256, n_ids + n_ids // 4)
            self._req_shm = [
                shared_memory.SharedMemory(
                    create=True, size=8 * stride * self._req_records)
                for _ in range(nshards)
            ]
            self._rep_shm = [
                shared_memory.SharedMemory(
                    create=True, size=8 * stride * self._rep_records)
                for _ in range(nshards)
            ]
            self._box_finalizer = weakref.finalize(
                self, _unlink_segments, self._req_shm + self._rep_shm)
        names = {
            "vids": self._vids.name,
            "vhops": self._vhops.name,
            "vlen": self._vlen.name,
            "row_of": self._row_of.name,
            "alive": self._alive.name,
            "req": tuple(shm.name for shm in self._req_shm),
            "rep": tuple(shm.name for shm in self._rep_shm),
            "groups": groups,
        }
        if names != self._sent_names:
            for conn in self._conns:
                conn.send(("segs", names))
            for conn in self._conns:
                conn.recv()
            self._sent_names = names

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
        self._procs = []
        if self._box_finalizer is not None:
            self._box_finalizer()
            self._box_finalizer = None
        self._req_shm = []
        self._rep_shm = []
        self._req_records = 0
        self._rep_records = 0
        self._sent_names = None
