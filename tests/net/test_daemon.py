"""Unit tests for the networked gossip daemon (over loopback transports)."""

import asyncio
import gc
import random
import threading
import warnings

from repro.core.codec import MAX_MESSAGE_BYTES, V2_MAGIC, encode_message
from repro.core.config import NetworkConfig, ProtocolConfig, newscast
from repro.core.descriptor import NodeDescriptor
from repro.core.protocol import GossipNode
from repro.net.daemon import _ENVELOPE, _KIND_REPLY, _KIND_REQUEST, GossipDaemon
from repro.net.transport import LoopbackNetwork, LoopbackTransport
from repro.simulation.network import ConstantLatency

FAST = NetworkConfig(cycle_seconds=0.01, jitter=0.0, request_timeout=0.25)


def make_pair(config=None, network_config=FAST, latency=None, time_scale=1.0):
    """Two daemons 'a' and 'b' on a fresh loopback network."""
    config = config if config is not None else newscast(view_size=5)
    network = LoopbackNetwork(
        rng=random.Random(0), latency=latency, time_scale=time_scale
    )
    daemons = []
    for name in ("a", "b"):
        transport = LoopbackTransport(network, name)
        node = GossipNode(name, config, random.Random(hash(name) & 0xFFFF))
        daemons.append(GossipDaemon(node, transport, network_config))
    return network, daemons[0], daemons[1]


class TestExchange:
    def test_pushpull_merges_both_sides(self):
        async def scenario():
            _, a, b = make_pair()
            a.service.init(["b"])
            b.service.init([])
            await a.start(run_loop=False)
            await b.start(run_loop=False)
            completed = await a.run_cycle()
            await a.stop()
            await b.stop()
            return completed, a, b

        completed, a, b = asyncio.run(scenario())
        assert completed
        # b learned a's fresh descriptor through the push half...
        assert "a" in b.node.view
        # ...and a merged b's reply (b's own descriptor, hop count 1).
        assert "b" in a.node.view
        assert a.stats.exchanges_completed == 1
        assert b.stats.requests_received == 1
        assert a.stats.replies_received == 1

    def test_push_only_sends_no_reply(self):
        config = ProtocolConfig.from_label("(rand,rand,push)", 5)

        async def scenario():
            _, a, b = make_pair(config=config)
            a.service.init(["b"])
            b.service.init([])
            await a.start(run_loop=False)
            await b.start(run_loop=False)
            completed = await a.run_cycle()
            await asyncio.sleep(0)  # let the datagram arrive
            await a.stop()
            await b.stop()
            return completed, a, b

        completed, a, b = asyncio.run(scenario())
        assert completed
        assert "a" in b.node.view
        assert b.stats.requests_received == 1
        assert a.stats.replies_received == 0

    def test_empty_view_initiates_nothing(self):
        async def scenario():
            _, a, b = make_pair()
            a.service.init([])
            await a.start(run_loop=False)
            completed = await a.run_cycle()
            await a.stop()
            await b.stop()
            return completed, a.stats

        completed, stats = asyncio.run(scenario())
        assert not completed
        assert stats.cycles == 1
        assert stats.exchanges_completed == 0


class TestFailureHandling:
    def test_timeout_when_peer_is_gone(self):
        async def scenario():
            _, a, b = make_pair()
            a.service.init(["b"])
            await a.start(run_loop=False)
            # b never starts: the request is unroutable, the reply never
            # comes, and the exchange times out.
            completed = await a.run_cycle()
            await a.stop()
            return completed, a.stats

        completed, stats = asyncio.run(scenario())
        assert not completed
        assert stats.timeouts == 1
        assert stats.exchanges_completed == 0

    def test_late_reply_is_dropped_not_merged(self):
        # One-way latency 0.2s > timeout 0.25s/2: the reply arrives after
        # wait_for gave up -> counted late, never merged.
        slow = NetworkConfig(
            cycle_seconds=0.01, jitter=0.0, request_timeout=0.25
        )

        async def scenario():
            _, a, b = make_pair(
                network_config=slow, latency=ConstantLatency(0.2)
            )
            a.service.init(["b"])
            b.service.init([])
            await a.start(run_loop=False)
            await b.start(run_loop=False)
            completed = await a.run_cycle()
            view_after_timeout = [d.copy() for d in a.node.view]
            # Let the late reply arrive (request 0.2s + reply 0.2s).
            await asyncio.sleep(0.3)
            await a.stop()
            await b.stop()
            return completed, a, view_after_timeout

        completed, a, view_after_timeout = asyncio.run(scenario())
        assert not completed
        assert a.stats.timeouts == 1
        assert a.stats.late_replies == 1
        # The view did not change when the late reply arrived.
        assert [
            (d.address, d.hop_count) for d in a.node.view
        ] == [(d.address, d.hop_count) for d in view_after_timeout]

    def test_invalid_datagrams_are_counted_and_ignored(self):
        async def scenario():
            _, a, b = make_pair()
            a.service.init(["b"])
            await a.start(run_loop=False)
            a._on_datagram(b"", "b")  # too short for the envelope
            a._on_datagram(b"\x01\x00\x00\x00\x07garbage", "b")
            a._on_datagram(
                _ENVELOPE.pack(77, 0) + encode_message([]), "b"
            )  # unknown kind
            await a.stop()
            return a.stats

        stats = asyncio.run(scenario())
        assert stats.invalid_messages == 3

    def test_oversized_datagram_is_counted_and_the_loop_survives(self):
        # A frame over the 1 MiB wire cap must be dropped (counted as a
        # codec error), and the passive loop must keep answering real
        # requests afterwards.
        async def scenario():
            _, a, b = make_pair()
            a.service.init([])
            b.service.init(["a"])
            await a.start(run_loop=False)
            await b.start(run_loop=False)
            oversized = _ENVELOPE.pack(_KIND_REQUEST, 1) + b"x" * (
                MAX_MESSAGE_BYTES + 1
            )
            a._on_datagram(oversized, "b")
            a._on_datagram(b"\xff" * 64, "b")  # malformed payload
            completed = await b.run_cycle()  # a must still answer
            await a.stop()
            await b.stop()
            return a.stats, completed

        stats, completed = asyncio.run(scenario())
        assert stats.invalid_messages == 2
        assert completed
        assert stats.requests_received == 1


class TestWireFormat:
    @staticmethod
    def _deliver(payload):
        """Hand daemon b one request; return (sent datagrams, b)."""

        async def scenario():
            _, a, b = make_pair()
            b.service.init(["c"])
            sent = []
            b.transport.send = lambda dest, data: sent.append((dest, data))
            await b.start(run_loop=False)
            b._on_datagram(_ENVELOPE.pack(_KIND_REQUEST, 123) + payload, "a")
            await b.stop()
            return sent, b

        return asyncio.run(scenario())

    def test_request_gets_v2_reply(self):
        sent, b = self._deliver(encode_message([NodeDescriptor("a", 0)]))
        assert len(sent) == 1
        destination, data = sent[0]
        assert destination == "a"
        kind, exchange_id = _ENVELOPE.unpack_from(data, 0)
        assert kind == _KIND_REPLY
        assert exchange_id == 123
        assert data[_ENVELOPE.size] == V2_MAGIC
        assert b.stats.requests_received == 1

    def test_v1_json_request_is_counted_and_unanswered(self):
        sent, b = self._deliver(b'{"v":1,"view":[["a",0]]}')
        assert sent == []
        assert b.stats.invalid_messages == 1
        assert b.stats.requests_received == 0
        assert [(d.address, d.hop_count) for d in b.node.view] == [("c", 0)]


class TestLifecycle:
    def test_free_running_loop_gossips_and_stops_cleanly(self):
        async def scenario():
            _, a, b = make_pair()
            a.service.init(["b"])
            b.service.init(["a"])
            await a.start(run_loop=True)
            await b.start(run_loop=True)
            assert a.running
            await asyncio.sleep(0.15)
            await a.stop()
            await b.stop()
            assert not a.running
            # No tasks other than the current one survive.
            pending = [
                t
                for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            return a.stats, pending

        stats, pending = asyncio.run(scenario())
        assert stats.cycles >= 3
        assert stats.exchanges_completed >= 1
        assert pending == []

    def test_get_peer_is_safe_during_gossip(self):
        # getPeer from a foreign thread while the loop mutates the view:
        # the service lock makes this an everyday operation.
        async def scenario():
            _, a, b = make_pair()
            a.service.init(["b"])
            b.service.init(["a"])
            await a.start(run_loop=True)
            await b.start(run_loop=True)
            samples = []
            errors = []

            def application():
                try:
                    for _ in range(200):
                        peer = a.service.get_peer()
                        if peer is not None:
                            samples.append(peer)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            thread = threading.Thread(target=application)
            thread.start()
            await asyncio.sleep(0.1)
            thread.join()
            await a.stop()
            await b.stop()
            return samples, errors

        samples, errors = asyncio.run(scenario())
        assert errors == []
        assert samples
        assert set(samples) <= {"b"}

    def test_shutdown_is_warning_free(self):
        # Stopping a free-running daemon must tear down its cycle loop and
        # pending exchange futures for real: no "Task was destroyed but it
        # is pending!" events through the loop exception handler, and no
        # asyncio warnings at garbage collection.
        events = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: events.append(context)
            )
            _, a, b = make_pair()
            a.service.init(["b"])
            b.service.init(["a"])
            await a.start(run_loop=True)
            await b.start(run_loop=True)
            await asyncio.sleep(0.1)
            await a.stop()
            await b.stop()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(scenario())
            # Destroyed-pending-task complaints fire from Task.__del__:
            # force collection while the loop's handler is still ours.
            gc.collect()

        assert events == []
        leaked = [w for w in caught if "pending" in str(w.message).lower()]
        assert leaked == []
