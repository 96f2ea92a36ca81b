"""Unit tests for the three bootstrap scenarios."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.simulation.engine import CycleEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.scenarios import (
    GrowingScenario,
    lattice_bootstrap,
    random_bootstrap,
    start_growing,
)

ENGINE_CLASSES = [CycleEngine, FastCycleEngine]


def make_engine(c=5, seed=0, label="(rand,head,pushpull)"):
    return CycleEngine(ProtocolConfig.from_label(label, c), seed=seed)


class TestRandomBootstrap:
    def test_creates_requested_population(self):
        engine = make_engine()
        addresses = random_bootstrap(engine, 50)
        assert len(addresses) == 50
        assert len(engine) == 50

    def test_views_filled_to_capacity(self):
        engine = make_engine(c=5)
        random_bootstrap(engine, 50)
        assert all(len(n.view) == 5 for n in engine.nodes())

    def test_views_exclude_self(self):
        engine = make_engine()
        random_bootstrap(engine, 30)
        for node in engine.nodes():
            assert node.address not in node.view

    def test_views_have_distinct_entries(self):
        engine = make_engine()
        random_bootstrap(engine, 30)
        for node in engine.nodes():
            addresses = node.view.addresses()
            assert len(addresses) == len(set(addresses))

    def test_entries_have_hop_count_zero(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        for node in engine.nodes():
            assert all(d.hop_count == 0 for d in node.view)

    def test_custom_fill(self):
        engine = make_engine(c=10)
        random_bootstrap(engine, 30, view_fill=3)
        assert all(len(n.view) == 3 for n in engine.nodes())

    def test_small_population_fill_capped(self):
        engine = make_engine(c=10)
        random_bootstrap(engine, 3)
        assert all(len(n.view) == 2 for n in engine.nodes())

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigurationError):
            random_bootstrap(make_engine(), 0)


class TestLatticeBootstrap:
    def test_views_contain_nearest_ring_neighbours(self):
        engine = make_engine(c=4)
        addresses = lattice_bootstrap(engine, 10)
        node = engine.node(addresses[0])
        neighbours = set(node.view.addresses())
        expected = {addresses[1], addresses[-1], addresses[2], addresses[-2]}
        assert neighbours == expected

    def test_ring_distance_ordering(self):
        engine = make_engine(c=2)
        addresses = lattice_bootstrap(engine, 8)
        for index, address in enumerate(addresses):
            view = set(engine.node(address).view.addresses())
            ring = {
                addresses[(index + 1) % 8],
                addresses[(index - 1) % 8],
            }
            assert view == ring

    def test_rejects_tiny_population(self):
        with pytest.raises(ConfigurationError):
            lattice_bootstrap(make_engine(), 1)

    def test_lattice_is_connected_topology(self):
        from repro.graph.components import is_connected
        from repro.graph.snapshot import GraphSnapshot

        engine = make_engine(c=4)
        lattice_bootstrap(engine, 20)
        assert is_connected(GraphSnapshot.from_engine(engine))


class TestGrowingScenario:
    def test_population_grows_per_cycle(self):
        engine = make_engine()
        start_growing(engine, target_size=20, nodes_per_cycle=5)
        engine.run_cycle()
        assert len(engine) == 6  # oldest + first batch
        engine.run_cycle()
        assert len(engine) == 11

    def test_growth_stops_at_target(self):
        engine = make_engine()
        scenario = start_growing(engine, target_size=12, nodes_per_cycle=5)
        engine.run(6)
        assert len(engine) == 12
        assert scenario.done_at_cycle is not None

    def test_joiners_know_only_the_oldest(self):
        # Drive the scenario hook directly (before any gossip runs) so the
        # bootstrap views are observable.
        engine = make_engine()
        scenario = GrowingScenario(target_size=10, nodes_per_cycle=3)
        scenario.before_cycle(engine)
        assert len(engine) == 4  # the oldest plus the first batch
        for address in engine.addresses():
            if address == scenario.oldest:
                continue
            assert engine.node(address).view.addresses() == [scenario.oldest]

    def test_default_rate_mirrors_paper_proportion(self):
        engine = make_engine()
        scenario = start_growing(engine, target_size=1000)
        assert scenario.nodes_per_cycle == 10

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            GrowingScenario(0, 1)
        with pytest.raises(ConfigurationError):
            GrowingScenario(10, 0)


class TestSharedContactListBootstrap:
    """The add_nodes bootstrap foot-gun (shared contact list).

    ``add_nodes`` passes one shared contact list to every ``add_node``
    call while the self filter (``c != address``) is applied per node.
    These tests pin that no node can ever bootstrap a descriptor of
    itself into its own view through that path -- including when the
    shared list names the joiners' own (auto-assigned) addresses -- for
    both engine implementations.  The per-node filter in ``add_node``
    (and the second one in ``PeerSamplingService.init``) makes the shared
    list safe; if either filter is ever dropped, these tests fail.
    """

    @pytest.mark.parametrize("cls", ENGINE_CLASSES)
    def test_auto_addressed_batch_with_self_referential_contacts(self, cls):
        engine = cls(ProtocolConfig.from_label("(rand,head,pushpull)", 8), seed=0)
        # Auto addresses will be 0..4; the shared contact list names all
        # of them, so every joiner receives its own address as a contact.
        addresses = engine.add_nodes(5, contacts=[0, 1, 2, 3, 4])
        assert addresses == [0, 1, 2, 3, 4]
        for address in addresses:
            view = engine.node(address).view
            assert address not in [d.address for d in view]
            # the other four contacts all made it in
            assert len(view) == 4

    @pytest.mark.parametrize("cls", ENGINE_CLASSES)
    def test_explicit_batch_sharing_one_list(self, cls):
        engine = cls(ProtocolConfig.from_label("(rand,head,pushpull)", 4), seed=0)
        engine.add_node("hub")
        joiners = engine.add_nodes(6, contacts=["hub"])
        for address in joiners:
            assert [d.address for d in engine.node(address).view] == ["hub"]

    @pytest.mark.parametrize("cls", ENGINE_CLASSES)
    def test_self_free_views_survive_gossip(self, cls):
        engine = cls(ProtocolConfig.from_label("(rand,head,pushpull)", 6), seed=3)
        engine.add_nodes(20, contacts=list(range(20)))
        engine.run(10)
        for node in engine.nodes():
            assert node.address not in [d.address for d in node.view]

    def test_joiner_batch_never_bootstraps_into_own_view(self):
        # Regression for the add_nodes bootstrap foot-gun: the batch
        # shares one contact list, so the per-node self filter must still
        # hold for every joiner even when the growing scenario's contact
        # ends up being one of the joiners themselves.
        for cls in ENGINE_CLASSES:
            engine = cls(ProtocolConfig.from_label("(rand,head,pushpull)", 5), seed=0)
            scenario = start_growing(engine, target_size=30, nodes_per_cycle=7)
            engine.run(6)
            for node in engine.nodes():
                assert node.address not in [d.address for d in node.view], cls

    def test_growth_produces_connected_overlay_for_pushpull(self):
        # The paper's proportions (join rate ~3.3x the view size) with a
        # view size large enough to avoid the tiny-c finite-size effect:
        # pushpull keeps the growing overlay connected (paper Section 5).
        from repro.graph.components import is_connected
        from repro.graph.snapshot import GraphSnapshot

        engine = make_engine(c=15)
        start_growing(engine, target_size=100, nodes_per_cycle=50)
        engine.run(30)
        assert is_connected(GraphSnapshot.from_engine(engine))
