"""Unit and behavioural tests for the Cyclon extension."""

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.extensions.cyclon import CyclonConfig, CyclonNode, cyclon_engine
from repro.graph.components import is_connected
from repro.graph.metrics import average_degree
from repro.graph.snapshot import GraphSnapshot
from repro.simulation.churn import massive_failure
from repro.simulation.engine import CycleEngine
from repro.simulation.scenarios import random_bootstrap


def make_node(address="me", c=6, l=3, seed=0):
    return CyclonNode(address, CyclonConfig(c, l), random.Random(seed))


class TestCyclonConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CyclonConfig(view_size=0)
        with pytest.raises(ConfigurationError):
            CyclonConfig(view_size=5, shuffle_length=6)
        with pytest.raises(ConfigurationError):
            CyclonConfig(view_size=5, shuffle_length=0)

    def test_label(self):
        assert CyclonConfig(30, 8).label == "cyclon(c=30,l=8)"


class TestCyclonNode:
    def test_begin_exchange_empty_view(self):
        assert make_node().begin_exchange() is None

    def test_begin_exchange_targets_oldest_and_removes_it(self):
        node = make_node()
        node.view.replace(
            [
                __import__("repro.core.descriptor", fromlist=["NodeDescriptor"]).NodeDescriptor("young", 1),
                __import__("repro.core.descriptor", fromlist=["NodeDescriptor"]).NodeDescriptor("old", 9),
            ]
        )
        exchange = node.begin_exchange()
        assert exchange.peer == "old"
        assert "old" not in node.view

    def test_request_contains_fresh_self_descriptor(self):
        from repro.core.descriptor import NodeDescriptor

        node = make_node()
        node.view.replace([NodeDescriptor("a", 1)])
        exchange = node.begin_exchange()
        self_entries = [d for d in exchange.payload if d.address == "me"]
        assert len(self_entries) == 1
        assert self_entries[0].hop_count == 0

    def test_request_size_bounded_by_shuffle_length(self):
        from repro.core.descriptor import NodeDescriptor

        node = make_node(c=8, l=3)
        node.view.replace([NodeDescriptor(f"n{i}", i) for i in range(8)])
        exchange = node.begin_exchange()
        assert len(exchange.payload) <= 3

    def test_handle_request_replies_with_subset(self):
        from repro.core.descriptor import NodeDescriptor

        node = make_node(c=8, l=3)
        node.view.replace([NodeDescriptor(f"n{i}", i) for i in range(8)])
        reply = node.handle_request("peer", [NodeDescriptor("peer", 0)])
        assert 1 <= len(reply) <= 3
        assert all(d.address != "me" for d in reply)

    def test_view_size_is_preserved_by_shuffles(self):
        from repro.core.descriptor import NodeDescriptor

        node = make_node(c=4, l=2)
        node.view.replace([NodeDescriptor(f"n{i}", i) for i in range(4)])
        incoming = [NodeDescriptor("x", 0), NodeDescriptor("y", 1)]
        node.handle_request("x", incoming)
        assert len(node.view) == 4

    def test_received_duplicates_ignored(self):
        from repro.core.descriptor import NodeDescriptor

        node = make_node()
        node.view.replace([NodeDescriptor("a", 5)])
        node.handle_request("p", [NodeDescriptor("a", 0)])
        # Existing entry kept (Cyclon keeps the local copy on duplicates).
        assert node.view.descriptor_for("a").hop_count == 5

    def test_self_descriptors_never_enter_view(self):
        from repro.core.descriptor import NodeDescriptor

        node = make_node()
        node.handle_request("p", [NodeDescriptor("me", 0)])
        assert "me" not in node.view

    def test_sample_peer(self):
        from repro.core.descriptor import NodeDescriptor

        node = make_node()
        assert node.sample_peer() is None
        node.view.replace([NodeDescriptor("a", 1)])
        assert node.sample_peer() == "a"

    def test_repr(self):
        assert "cyclon" in repr(make_node())


class TestCyclonOverlay:
    def test_converges_to_connected_balanced_overlay(self):
        engine = cyclon_engine(CyclonConfig(view_size=8, shuffle_length=4), seed=1)
        random_bootstrap(engine, 200)
        engine.run(40)
        snapshot = GraphSnapshot.from_engine(engine)
        assert is_connected(snapshot)
        # Cyclon's in-degree balance: degrees concentrate near 2c.
        degrees = snapshot.degrees()
        assert average_degree(snapshot) == pytest.approx(16, rel=0.2)
        assert degrees.std() < 6

    def test_views_stay_at_capacity(self):
        engine = cyclon_engine(CyclonConfig(view_size=6, shuffle_length=3), seed=2)
        random_bootstrap(engine, 100)
        engine.run(30)
        assert all(len(n.view) == 6 for n in engine.nodes())

    def test_heals_after_massive_failure(self):
        engine = cyclon_engine(CyclonConfig(view_size=10, shuffle_length=5), seed=3)
        random_bootstrap(engine, 300)
        engine.run(30)
        massive_failure(engine, 0.5)
        initial = engine.dead_link_count()
        engine.run(40)
        assert engine.dead_link_count() < initial * 0.2

    def test_deterministic_with_seed(self):
        def fingerprint(seed):
            engine = cyclon_engine(CyclonConfig(6, 3), seed=seed)
            random_bootstrap(engine, 60)
            engine.run(10)
            return {
                a: tuple(sorted(d.address for d in view))
                for a, view in engine.views().items()
            }

        assert fingerprint(7) == fingerprint(7)

    def test_balance_and_healing_against_rand_view_selection(self):
        # Cyclon's shuffle keeps degrees tighter than rand view selection
        # and, unlike it, heals a 50% crash.
        def degree_std_and_residual(engine):
            random_bootstrap(engine, 400)
            engine.run(50)
            std = float(GraphSnapshot.from_engine(engine).degrees().std())
            massive_failure(engine, 0.5)
            initial = engine.dead_link_count()
            engine.run(30)
            return std, engine.dead_link_count() / initial

        rand_config = ProtocolConfig.from_label("(rand,rand,pushpull)", 12)
        cyclon = degree_std_and_residual(
            cyclon_engine(CyclonConfig(12, 6), seed=2)
        )
        rand = degree_std_and_residual(CycleEngine(rand_config, seed=2))
        assert cyclon[0] < rand[0]
        assert cyclon[1] < 0.3
        assert rand[1] > 0.3
