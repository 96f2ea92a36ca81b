"""Unit and behavioural tests for combined (second-view) services."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.extensions.second_view import CombinedOverlay
from repro.graph.components import is_connected
from repro.graph.snapshot import GraphSnapshot
from repro.simulation.churn import massive_failure


def make_overlay(seed=0, c=8):
    configs = [
        ProtocolConfig.from_label("(rand,head,pushpull)", c),
        ProtocolConfig.from_label("(rand,rand,pushpull)", c),
    ]
    return CombinedOverlay(configs, seed=seed)


def bootstrap(overlay, n):
    first = overlay.add_node()
    for _ in range(n - 1):
        overlay.add_node(contacts=[first])
    return overlay


class TestConstruction:
    def test_requires_at_least_one_config(self):
        with pytest.raises(ConfigurationError):
            CombinedOverlay([])

    def test_engines_share_address_space(self):
        overlay = bootstrap(make_overlay(), 10)
        for engine in overlay.engines:
            assert engine.addresses() == overlay.addresses()

    def test_len_and_contains(self):
        overlay = bootstrap(make_overlay(), 5)
        assert len(overlay) == 5
        assert overlay.addresses()[0] in overlay


class TestMembership:
    def test_remove_node_applies_everywhere(self):
        overlay = bootstrap(make_overlay(), 10)
        victim = overlay.addresses()[3]
        overlay.remove_node(victim)
        for engine in overlay.engines:
            assert victim not in engine

    def test_crash_random_nodes_is_synchronized(self):
        overlay = bootstrap(make_overlay(), 20)
        victims = overlay.crash_random_nodes(5)
        assert len(victims) == 5
        for engine in overlay.engines:
            assert set(engine.addresses()) == set(overlay.addresses())


class TestExecution:
    def test_run_advances_all_engines(self):
        overlay = bootstrap(make_overlay(), 15)
        overlay.run(4)
        assert overlay.cycle == 4
        assert all(engine.cycle == 4 for engine in overlay.engines)

    def test_combined_view_is_union(self):
        overlay = bootstrap(make_overlay(), 30)
        overlay.run(10)
        address = overlay.addresses()[0]
        combined = {d.address for d in overlay.combined_view(address)}
        for engine in overlay.engines:
            assert set(engine.node(address).view.addresses()) <= combined

    def test_combined_view_deduplicates_keeping_freshest(self):
        overlay = bootstrap(make_overlay(), 30)
        overlay.run(10)
        address = overlay.addresses()[0]
        combined = overlay.combined_view(address)
        addresses = [d.address for d in combined]
        assert len(addresses) == len(set(addresses))
        hops = [d.hop_count for d in combined]
        assert hops == sorted(hops)

    def test_combined_overlay_connected(self):
        overlay = bootstrap(make_overlay(), 60)
        overlay.run(15)
        assert is_connected(GraphSnapshot.from_views(overlay.views()))


class TestCombinedService:
    def test_get_peer_samples_union(self):
        overlay = bootstrap(make_overlay(), 30)
        overlay.run(10)
        address = overlay.addresses()[0]
        service = overlay.service(address)
        combined = {d.address for d in overlay.combined_view(address)}
        assert all(service.get_peer() in combined for _ in range(30))

    def test_service_for_unknown_address_rejected(self):
        overlay = bootstrap(make_overlay(), 5)
        with pytest.raises(ConfigurationError):
            overlay.service("ghost")

    def test_get_peers(self):
        overlay = bootstrap(make_overlay(), 20)
        overlay.run(5)
        service = overlay.service(overlay.addresses()[0])
        assert len(service.get_peers(10)) == 10

    def test_initialized_property(self):
        overlay = bootstrap(make_overlay(), 10)
        # The hub (first node) starts with empty views; joiners are seeded
        # with the hub as contact and are initialized immediately.
        assert overlay.service(overlay.addresses()[1]).initialized
        assert not overlay.service(overlay.addresses()[0]).initialized
        overlay.run(1)
        assert overlay.service(overlay.addresses()[0]).initialized


class TestHealingAdvantage:
    def test_union_heals_like_its_head_component(self):
        # The paper's Section 10 motivation: a head instance gives the
        # union fast healing even though the rand instance retains dead
        # links much longer.
        overlay = bootstrap(make_overlay(seed=3, c=10), 200)
        overlay.run(30)
        overlay.crash_random_nodes(100)
        overlay.run(30)
        head_engine, rand_engine = overlay.engines
        assert head_engine.dead_link_count() < rand_engine.dead_link_count()

    def test_union_stays_connected_while_head_heals(self):
        overlay = bootstrap(make_overlay(seed=5, c=12), 400)
        overlay.run(50)
        overlay.crash_random_nodes(200)
        overlay.run(30)
        head_engine, rand_engine = overlay.engines
        assert is_connected(GraphSnapshot.from_views(overlay.views()))
        head_dead = head_engine.dead_link_count()
        assert head_dead < 0.2 * rand_engine.dead_link_count()
