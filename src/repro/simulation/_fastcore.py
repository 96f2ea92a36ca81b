"""Optional C accelerator for the flat-array engines.

The flat-array kernel stores every view in ``array('q')`` buffers, which
are plain C ``int64`` memory.  This module compiles ``_fastcore.c`` (the
file next to it; with the system C compiler, once, cached) into a shared
library and hands out a ctypes handle to it.  The C file states Figure 1
once, as ``k_select`` / ``k_payload`` / ``k_receive`` -- the mirror of
:meth:`FlatArrayEngine.select` / ``payload`` / ``receive`` -- and its
exported entry points are *schedulers* over those steps: ``fc_run_cycle``
(a whole shuffled cycle), ``fc_event_run`` (the whole heap loop of the
event model; ``fc_event_begin`` / ``fc_event_deliver``, the steps it
dispatches to, are bound as the step-level test seam) and
``fs_request_phase`` / ``fs_deliver`` (the sharded BSP phases with keyed
draws).

All mutable C state lives in a ``k_ctx`` that each engine owns
(:meth:`Accelerator.context`), so any number of engines may run their C
loops concurrently from different threads: ctypes releases the GIL for
the duration of every call and no two engines share a byte.

Bit-exact randomness
--------------------

The accelerated paths must consume the engine's ``random.Random`` exactly
like the pure-Python reference does, or determinism and the differential
guarantees would silently break.  The C code therefore reimplements, bit
for bit, the CPython primitives the exchange uses:

- the MT19937 core (``genrand_uint32`` incl. the tempering steps, matching
  ``_randommodule.c``);
- ``Random._randbelow_with_getrandbits`` (``getrandbits(k)`` for ``k <= 32``
  is ``genrand_uint32() >> (32 - k)``, rejection-sampled);
- ``Random.shuffle`` (Fisher-Yates over ``_randbelow(i + 1)``);
- ``Random.sample``'s *pool* algorithm.  ``sample(range(m), c)`` with
  ``m <= 2c + 2`` always satisfies ``m <= setsize`` (the pool/selection-set
  cutoff in ``random.py``), so the selection-set branch is never needed.

Before an accelerated cycle or slice the engine hands the C code the
Mersenne Twister state (``Random.getstate()``); afterwards the mutated
state is installed back via ``Random.setstate()``.  The RNG stream is
therefore seamless across Python and C consumers -- the determinism tests
assert that even the post-run generator state matches the reference
engine's.

The accelerator is optional: when no C compiler is available (or
``REPRO_NO_ACCEL`` is set), the engines transparently fall back to the
kernel's Python steps, which produce identical results, only slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import weakref
from typing import Optional

__all__ = ["load_accelerator", "Accelerator"]

DISABLE_ENV_VAR = "REPRO_NO_ACCEL"
"""Set (to any non-empty value) to force the pure-Python engine path."""

_SOURCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_fastcore.c"
)

_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
"""Compile flags; part of the library cache key because they are
semantically load-bearing: ``-ffp-contract=off`` stops compilers that
contract ``a*b + c`` into fma by default (aarch64) from skipping the
intermediate rounding CPython's float arithmetic performs -- the
event-path latency expressions must round identically or a delay can
land on the other side of an integer-tick boundary and silently break
the byte-identity contract."""

_I64 = ctypes.c_int64
_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_ubyte)
_CTX = ctypes.c_void_p


class Accelerator:
    """ctypes handle to the compiled core.

    Stateless and shared by the whole process; every entry point takes
    the calling engine's own context (:meth:`context`) first.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

        def bind(name, restype, *argtypes):
            function = getattr(lib, name)
            function.argtypes = list(argtypes)
            function.restype = restype
            return function

        c_int, c_double, c_uint64 = (
            ctypes.c_int, ctypes.c_double, ctypes.c_uint64,
        )
        bind("fc_new", _CTX)
        bind("fc_free", None, _CTX)
        self.setup = bind(
            "fc_setup", c_int, _CTX,
            _I64P, _I64P, _I64P, _I64P, _U8P,          # view rows, alive
            _I64, _I64, _I64,                          # c, healer, swapper
            c_int, c_int, c_int,                       # keep_self, push, pull
            c_int, c_int, c_int, c_int,                # ps, vs, omni, shuffle
            _I64P, _I64,                               # partition groups, n
        )
        self.run_cycle = bind(
            "fc_run_cycle", None, _CTX, _I64P, _I64, _I64P, _I64P
        )
        self.bootstrap = bind(
            "fc_bootstrap", None, _CTX, _I64, _I64, _I64, _I64P
        )
        self.load_state = bind("fc_load_state", None, _CTX, _I64P)
        self.store_state = bind("fc_store_state", None, _CTX, _I64P)
        self.event_setup = bind(
            "fc_event_setup", None, _CTX, _I64P, _I64P, _I64P, _I64P, _I64P
        )
        self.event_begin = bind("fc_event_begin", _I64, _CTX, _I64, _I64)
        self.event_deliver = bind(
            "fc_event_deliver", None, _CTX, _I64, _I64, _I64
        )
        self.heap_push = bind(
            "fc_heap_push", None, _I64, _I64, _I64, _I64P, _I64P, _I64P, _I64P
        )
        self.event_run = bind(
            "fc_event_run", _I64, _CTX,
            _I64, _I64,                                # end, boundary
            _I64P, _I64P, _I64P,                       # heap tick/seq/data
            _I64P, _I64,                               # heap_len, heap_cap
            _I64P, _I64P,                              # freelist, free_len
            _I64P, _I64,                               # pool_fresh, pool_cap
            _I64P, _I64P,                              # seq_io, now_io
            _I64, c_double,                            # loss_code, loss_p
            _I64, _I64,                                # lat_code, const_delay
            c_double, c_double,                        # lat_a, lat_b
            c_double, _I64,                            # tick_scale, period
            _I64P, _I64P,                              # counters, top_tick
        )
        self.shard_request = bind(
            "fs_request_phase", _I64, _CTX,
            c_uint64, c_uint64,                        # phase seed, round
            _I64, _I64,                                # shard, nshards
            _I64, _I64P, _I64P,                        # n_ids, outbox, failed
        )
        self.shard_deliver = bind(
            "fs_deliver", None, _CTX,
            c_uint64, c_uint64,                        # phase seed, round
            _I64,                                      # is_request
            _I64, _I64,                                # shard, nshards
            _I64P, _I64P, _I64,                        # box addrs/counts/n
            _I64, _I64P,                               # do_reply, reply_box
            _I64P,                                     # out
        )

    def context(self, owner: object) -> int:
        """A fresh ``k_ctx`` for ``owner``, freed when ``owner`` is
        collected: the engine's resident MT19937 state, its registered
        buffers and its scratch."""
        ctx = self._lib.fc_new()
        if not ctx:
            raise MemoryError("cannot allocate a C core context")
        weakref.finalize(owner, self._lib.fc_free, ctx)
        return ctx

    @staticmethod
    def pointer(buffer_address: int) -> "ctypes.POINTER(ctypes.c_int64)":
        """An ``int64*`` for an ``array('q')`` buffer address."""
        return ctypes.cast(buffer_address, _I64P)

    @staticmethod
    def byte_pointer(buffer_address: int) -> "ctypes.POINTER(ctypes.c_ubyte)":
        """An ``unsigned char*`` for a ``bytearray`` buffer address."""
        return ctypes.cast(buffer_address, _U8P)


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    """A private, per-user cache directory for the compiled library.

    Never a world-writable shared location: loading a ``.so`` from a
    predictable path in ``/tmp`` would let another local user pre-plant
    code.  The directory is created ``0700`` and verified to be owned by
    the current user and not group/world-writable; on any doubt a fresh
    ``mkdtemp`` (private by construction) is used instead.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = os.path.join(base, "repro-fastcore")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
        owner_ok = not hasattr(os, "getuid") or info.st_uid == os.getuid()
        if not owner_ok or info.st_mode & 0o022:
            raise OSError("untrusted cache directory")
        return path
    except OSError:
        return tempfile.mkdtemp(prefix="repro-fastcore-")


def _cache_path() -> str:
    # Hash source AND flags: a flags-only change must not reuse a stale
    # library compiled under different floating-point semantics.
    with open(_SOURCE_PATH, "rb") as handle:
        source = handle.read()
    digest = hashlib.sha256(source + repr(_CFLAGS).encode()).hexdigest()[:16]
    tag = f"repro_fastcore_{digest}_py{sys.version_info[0]}{sys.version_info[1]}"
    return os.path.join(_cache_dir(), f"{tag}.so")


class _BuildError(Exception):
    """Why no library could be produced (one line, for the user)."""


def _build() -> str:
    """The path of the compiled library, compiling it if not cached."""
    compiler = _find_compiler()
    if compiler is None:
        raise _BuildError("no C compiler (cc, gcc or clang) on PATH")
    try:
        target = _cache_path()
        if os.path.exists(target):
            return target
        so_tmp = f"{target}.{os.getpid()}.tmp"
        result = subprocess.run(
            [compiler, *_CFLAGS, "-o", so_tmp, _SOURCE_PATH, "-lm"],
            capture_output=True,
        )
        if result.returncode != 0:
            lines = result.stderr.decode(errors="replace").strip().splitlines()
            raise _BuildError(
                f"{compiler} exited with status {result.returncode}: "
                + (lines[-1] if lines else "no diagnostic")
            )
        os.replace(so_tmp, target)  # atomic against concurrent builders
        return target
    except OSError as exc:
        raise _BuildError(f"cannot build {_SOURCE_PATH}: {exc}") from exc


_cached: Optional[Accelerator] = None
_attempted = False
_failure = "load_accelerator() has not run"


def load_accelerator() -> Optional[Accelerator]:
    """The process-wide accelerator, or ``None`` when unavailable.

    Compilation is attempted at most once per process; failures (no
    compiler, a rejected source, sandboxed tmp, ...) disable acceleration
    and are kept for :func:`unavailable_reason`.
    """
    global _cached, _attempted, _failure
    if os.environ.get(DISABLE_ENV_VAR):
        return None
    if _attempted:
        return _cached
    _attempted = True
    try:
        _cached = Accelerator(ctypes.CDLL(_build()))
    except (_BuildError, OSError) as exc:
        _failure = str(exc)
    return _cached


def unavailable_reason() -> str:
    """Why :func:`load_accelerator` last returned ``None``."""
    if os.environ.get(DISABLE_ENV_VAR):
        return f"{DISABLE_ENV_VAR} is set"
    return _failure
