"""The networked gossip daemon: paper Figure 1 over real datagrams.

:class:`GossipDaemon` runs one :class:`~repro.core.protocol.GossipNode`
behind a :class:`~repro.net.transport.DatagramTransport`:

- the **active thread** is an asyncio task that once per (jittered) cycle
  calls ``begin_exchange`` and ships the request; for pull/pushpull
  protocols it then awaits the reply under a timeout;
- the **passive thread** is the transport's receive callback: decode,
  ``handle_request``, send back the reply (for pull/pushpull).

Failure handling follows the paper's model plus the minimum a deployment
needs: lost datagrams are simply lost, a pull reply that misses the
timeout makes the exchange count as failed, and a reply arriving *after*
its timeout is dropped (merging it would resurrect descriptors the view
dynamics already aged past).  Requests and replies are correlated by a
per-daemon exchange id carried in a 5-byte envelope in front of the codec
frame.

When ``NetworkConfig.auth_key`` is set, every outgoing frame is wrapped
in a signed frame (truncated HMAC-SHA256, see
:func:`repro.core.codec.encode_signed_message`) and every incoming
datagram must verify against the same key -- unsigned or forged frames
are dropped and counted in :attr:`DaemonStats.auth_failures`.  Signing
wraps the transport bytes only, so a keyed run's protocol state is
byte-identical to the unkeyed one.

All view mutations happen under the :class:`PeerSamplingService` lock, so
application threads can call ``getPeer`` concurrently with the gossip
loop -- the thread-safety contract of the service API.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import struct
from typing import List, Optional

from repro.core.codec import (
    AuthenticationError,
    CodecError,
    decode_frame,
    decode_signed_frame,
    encode_message,
    encode_signed_message,
)
from repro.core.config import NetworkConfig
from repro.core.descriptor import Address, NodeDescriptor
from repro.core.protocol import GossipNode
from repro.core.service import PeerSamplingService
from repro.net.transport import DatagramTransport

__all__ = ["DaemonStats", "GossipDaemon"]

_ENVELOPE = struct.Struct("!BI")  # kind, exchange id
_KIND_REQUEST = 1
_KIND_REPLY = 2
_ID_SPACE = 1 << 32


@dataclasses.dataclass
class DaemonStats:
    """Operational counters of one daemon (monotonic, never reset)."""

    cycles: int = 0
    """Active-thread wakeups (including ones that found an empty view)."""
    exchanges_initiated: int = 0
    """Exchanges actually started (peer selected, request shipped)."""
    exchanges_completed: int = 0
    """Initiated exchanges that ran to completion (reply merged, or push
    sent -- push has no acknowledgement to wait for)."""
    timeouts: int = 0
    """Initiated pull exchanges whose reply missed the timeout."""
    requests_received: int = 0
    replies_received: int = 0
    late_replies: int = 0
    """Replies dropped because their exchange had already timed out."""
    invalid_messages: int = 0
    """Datagrams the codec or envelope parser rejected."""
    auth_failures: int = 0
    """Datagrams a keyed daemon dropped because they were unsigned or
    failed signature verification (see ``NetworkConfig.auth_key``)."""


class GossipDaemon:
    """One deployed peer sampling node: gossip state machine + transport.

    Parameters
    ----------
    node:
        The protocol state machine.  Its address must equal the
        transport's ``local_address`` -- that is what remote peers will
        gossip back to.
    transport:
        A started-or-startable datagram endpoint; the daemon takes over
        its receive callback.
    network:
        Timing knobs (cycle length, jitter, request timeout) and the
        optional signing key.
    rng:
        Source of jitter randomness; defaults to a fresh ``Random``.
        Deterministic tests hand in a seeded instance.
    """

    def __init__(
        self,
        node: GossipNode,
        transport: DatagramTransport,
        network: Optional[NetworkConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.node = node
        self.transport = transport
        self.network = network if network is not None else NetworkConfig()
        self.service = PeerSamplingService(node)
        self.stats = DaemonStats()
        self._rng = rng if rng is not None else random.Random()
        self._pending: dict = {}
        self._next_id = self._rng.randrange(_ID_SPACE)
        self._task: Optional[asyncio.Task] = None
        self._stop_requested = False
        transport.receiver = self._on_datagram

    @property
    def address(self) -> Address:
        """The node's (= transport's) address."""
        return self.node.address

    @property
    def running(self) -> bool:
        """Whether the periodic active-thread task is alive."""
        return self._task is not None and not self._task.done()

    # -- lifecycle ---------------------------------------------------------

    async def start(self, run_loop: bool = True) -> None:
        """Start the transport and (optionally) the periodic gossip task.

        ``run_loop=False`` starts a *passive-only* daemon: it answers
        requests but initiates nothing until :meth:`run_cycle` is called
        explicitly -- the mode the deterministic cluster harness and the
        ``live`` engine drive cycles in.
        """
        await self.transport.start()
        if run_loop and self._task is None:
            self._stop_requested = False
            self._task = asyncio.get_running_loop().create_task(
                self._gossip_loop()
            )

    async def stop(self) -> None:
        """Stop gossiping and release the transport.

        Pending pull exchanges are cancelled; in-flight replies addressed
        to this daemon are dropped by the network once the transport is
        closed.  There is deliberately no leave message: departed nodes
        simply stop gossiping (paper Section 2).
        """
        # Belt and braces: the flag alone would stop the loop within one
        # cycle; cancel() stops it now.  Relying on cancel() alone would
        # race: wait_for can swallow an external cancellation that lands
        # in the same loop iteration as the awaited reply (CPython
        # gh-86296), which would leave the task running -- and a bare
        # ``await task`` hanging -- forever.
        self._stop_requested = True
        task, self._task = self._task, None  # atomic: concurrent stop()s
        try:
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        finally:
            # Cancel in-flight pulls and release the endpoint even if the
            # gossip task died on an unexpected error: a daemon must never
            # leave a pending future or an open socket behind its stop().
            self.cancel_pending()
            await self.transport.close()

    def cancel_pending(self) -> None:
        """Cancel every in-flight pull exchange (synchronous, idempotent)."""
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()

    # -- active thread -----------------------------------------------------

    async def _gossip_loop(self) -> None:
        network = self.network
        while not self._stop_requested:
            delay = network.cycle_seconds
            if network.jitter:
                delay += network.cycle_seconds * self._rng.uniform(
                    -network.jitter, network.jitter
                )
            await asyncio.sleep(max(delay, 0.0))
            if self._stop_requested:
                break
            await self.run_cycle()

    async def run_cycle(self) -> bool:
        """One active-thread initiation; returns whether it completed.

        Exposed so harnesses can drive cycles in lockstep instead of on
        the wall clock; the periodic task calls this too.
        """
        self.stats.cycles += 1
        with self.service.lock:
            exchange = self.node.begin_exchange()
        if exchange is None:
            return False
        return await self.initiate(exchange)

    async def initiate(self, exchange) -> bool:
        """Ship one pre-built :class:`~repro.core.protocol.Exchange`.

        Split out of :meth:`run_cycle` so engine-style drivers can apply
        engine-level checks (reachability) between peer selection and the
        send, exactly where the cycle engine applies them.
        """
        exchange_id = self._allocate_id()
        self.stats.exchanges_initiated += 1
        key = self.network.auth_key
        if key is not None:
            payload = encode_signed_message(exchange.payload, key)
        else:
            payload = encode_message(exchange.payload)
        request = _ENVELOPE.pack(_KIND_REQUEST, exchange_id) + payload
        if not self.node.config.pull:
            # Push-only: fire and forget, nothing to await.
            self.transport.send(exchange.peer, request)
            self.stats.exchanges_completed += 1
            return True
        future = asyncio.get_running_loop().create_future()
        self._pending[exchange_id] = future
        self.transport.send(exchange.peer, request)
        try:
            reply: List[NodeDescriptor] = await asyncio.wait_for(
                future, self.network.request_timeout
            )
        except asyncio.TimeoutError:
            # Late replies find no pending future and are counted dropped.
            self._pending.pop(exchange_id, None)
            self.stats.timeouts += 1
            return False
        except asyncio.CancelledError:
            self._pending.pop(exchange_id, None)
            raise
        with self.service.lock:
            self.node.handle_response(exchange.peer, reply)
        self.stats.exchanges_completed += 1
        return True

    def _allocate_id(self) -> int:
        allocated = self._next_id
        self._next_id = (self._next_id + 1) % _ID_SPACE
        return allocated

    # -- passive thread ----------------------------------------------------

    def _on_datagram(self, data: bytes, sender: Address) -> None:
        if len(data) < _ENVELOPE.size:
            self.stats.invalid_messages += 1
            return
        kind, exchange_id = _ENVELOPE.unpack_from(data, 0)
        key = self.network.auth_key
        try:
            if key is not None:
                # Keyed daemons accept nothing unauthenticated: unsigned
                # and unverifiable frames alike are dropped and counted.
                _, view = decode_signed_frame(data[_ENVELOPE.size :], key)
            else:
                _, view = decode_frame(data[_ENVELOPE.size :])
        except AuthenticationError:
            self.stats.auth_failures += 1
            return
        except CodecError:
            self.stats.invalid_messages += 1
            return
        if kind == _KIND_REQUEST:
            self.stats.requests_received += 1
            with self.service.lock:
                reply = self.node.handle_request(sender, view)
            if reply is not None:
                try:
                    if key is not None:
                        payload = encode_signed_message(reply, key)
                    else:
                        payload = encode_message(reply)
                except CodecError:
                    self.stats.invalid_messages += 1
                    return
                self.transport.send(
                    sender, _ENVELOPE.pack(_KIND_REPLY, exchange_id) + payload
                )
        elif kind == _KIND_REPLY:
            self.stats.replies_received += 1
            future = self._pending.pop(exchange_id, None)
            if future is None or future.done():
                self.stats.late_replies += 1
                return
            future.set_result(view)
        else:
            self.stats.invalid_messages += 1
