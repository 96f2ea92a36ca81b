"""Unit tests for the cycle-driven engine."""

import pytest

from repro.core.config import ProtocolConfig, newscast
from repro.core.errors import ConfigurationError, NodeNotFoundError
from repro.graph.metrics import average_degree
from repro.graph.snapshot import GraphSnapshot
from repro.simulation.churn import massive_failure
from repro.simulation.engine import CycleEngine
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.trace import Observer


def make_engine(label="(rand,head,pushpull)", c=5, seed=0):
    return CycleEngine(ProtocolConfig.from_label(label, c), seed=seed)


class TestPopulation:
    def test_requires_config_or_factory(self):
        with pytest.raises(ConfigurationError):
            CycleEngine()

    def test_add_node_auto_addresses_are_consecutive(self):
        engine = make_engine()
        assert engine.add_node() == 0
        assert engine.add_node() == 1
        assert len(engine) == 2

    def test_add_node_explicit_address(self):
        engine = make_engine()
        assert engine.add_node("alpha") == "alpha"
        assert "alpha" in engine

    def test_add_duplicate_address_rejected(self):
        engine = make_engine()
        engine.add_node("a")
        with pytest.raises(ConfigurationError):
            engine.add_node("a")

    def test_auto_address_skips_taken_values(self):
        engine = make_engine()
        engine.add_node(0)
        engine.add_node(1)
        assert engine.add_node() == 2

    def test_contacts_seed_the_view(self):
        engine = make_engine()
        engine.add_node("hub")
        joiner = engine.add_node(contacts=["hub"])
        assert engine.node(joiner).view.addresses() == ["hub"]

    def test_own_address_not_a_contact(self):
        engine = make_engine()
        address = engine.add_node("x", contacts=["x"])
        assert len(engine.node(address).view) == 0

    def test_add_nodes_bulk(self):
        engine = make_engine()
        engine.add_node("hub")
        addresses = engine.add_nodes(5, contacts=["hub"])
        assert len(addresses) == 5
        assert len(engine) == 6

    def test_node_lookup_missing_raises(self):
        with pytest.raises(NodeNotFoundError):
            make_engine().node("ghost")

    def test_remove_node(self):
        engine = make_engine()
        engine.add_node("a")
        engine.remove_node("a")
        assert "a" not in engine
        with pytest.raises(NodeNotFoundError):
            engine.remove_node("a")

    def test_crash_random_nodes(self):
        engine = make_engine()
        engine.add_nodes(10)
        victims = engine.crash_random_nodes(4)
        assert len(victims) == 4
        assert len(engine) == 6
        assert all(v not in engine for v in victims)

    def test_crash_more_than_population_rejected(self):
        engine = make_engine()
        engine.add_nodes(2)
        with pytest.raises(ConfigurationError):
            engine.crash_random_nodes(3)

    def test_is_alive(self):
        engine = make_engine()
        engine.add_node("a")
        assert engine.is_alive("a")
        assert not engine.is_alive("b")


class TestExecution:
    def test_run_counts_cycles(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        engine.run(7)
        assert engine.cycle == 7

    def test_every_node_initiates_once_per_cycle(self):
        engine = make_engine()
        random_bootstrap(engine, 20)
        engine.run_cycle()
        for node in engine.nodes():
            assert node.exchanges_initiated == 1

    def test_deterministic_given_seed(self):
        def views_fingerprint(seed):
            engine = make_engine(seed=seed)
            random_bootstrap(engine, 30)
            engine.run(10)
            return {
                a: tuple((d.address, d.hop_count) for d in view)
                for a, view in engine.views().items()
            }

        assert views_fingerprint(5) == views_fingerprint(5)
        assert views_fingerprint(5) != views_fingerprint(6)

    def test_exchange_with_dead_peer_is_lost(self):
        # Disable the live-peer oracle so the node actually targets the
        # ghost and the message-loss path is exercised.
        engine = CycleEngine(
            ProtocolConfig.from_label("(rand,head,push)", 5),
            seed=0,
            omniscient_peer_selection=False,
        )
        engine.add_node("a", contacts=["ghost"])
        engine.run_cycle()
        assert engine.failed_exchanges == 1
        assert engine.completed_exchanges == 0

    def test_single_node_skips_turn(self):
        engine = make_engine()
        engine.add_node("lonely")
        engine.run_cycle()  # must not raise
        assert engine.completed_exchanges == 0

    def test_completed_exchanges_counted(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b"])
        engine.add_node("b", contacts=["a"])
        engine.run_cycle()
        assert engine.completed_exchanges == 2

    def test_reachability_predicate_blocks_exchanges(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b"])
        engine.add_node("b", contacts=["a"])
        engine.reachable = lambda src, dst: False
        engine.run_cycle()
        assert engine.completed_exchanges == 0
        assert engine.failed_exchanges == 2

    def test_views_converge_to_full(self):
        engine = make_engine(c=5)
        engine.add_node("hub")
        engine.add_nodes(20, contacts=["hub"])
        engine.run(10)
        sizes = [len(node.view) for node in engine.nodes()]
        assert min(sizes) >= 4

    def test_liveness_installed_on_nodes(self):
        engine = make_engine()
        address = engine.add_node()
        assert engine.node(address).liveness is not None
        assert engine.node(address).liveness(address)

    def test_omniscient_selection_can_be_disabled(self):
        engine = CycleEngine(newscast(5), seed=0, omniscient_peer_selection=False)
        address = engine.add_node()
        assert engine.node(address).liveness is None

    def test_dead_peer_selection_skipped_with_oracle(self):
        engine = make_engine("(tail,head,push)")
        engine.add_node("a")
        engine.node("a").view.replace(
            [
                __import__("repro.core.descriptor", fromlist=["NodeDescriptor"]).NodeDescriptor("dead", 9),
            ]
        )
        engine.run_cycle()
        # 'dead' was the only entry and is not alive: no initiation happens.
        assert engine.failed_exchanges == 0
        assert engine.completed_exchanges == 0


class TestObservers:
    def test_observer_hooks_called_in_order(self):
        events = []

        class Recorder(Observer):
            def before_cycle(self, engine):
                events.append(("before", engine.cycle))

            def after_cycle(self, engine):
                events.append(("after", engine.cycle))

        engine = make_engine()
        random_bootstrap(engine, 5)
        engine.add_observer(Recorder())
        engine.run(2)
        assert events == [
            ("before", 0),
            ("after", 1),
            ("before", 1),
            ("after", 2),
        ]

    def test_remove_observer(self):
        observer = Observer()
        engine = make_engine()
        engine.add_observer(observer)
        engine.remove_observer(observer)
        with pytest.raises(ValueError):
            engine.remove_observer(observer)

    def test_observer_may_crash_nodes_mid_cycle(self):
        class Reaper(Observer):
            def before_cycle(self, engine):
                if engine.cycle == 1 and len(engine) > 2:
                    engine.crash_random_nodes(len(engine) - 2)

        engine = make_engine()
        random_bootstrap(engine, 10)
        engine.add_observer(Reaper())
        engine.run(3)  # must not raise
        assert len(engine) == 2


class TestIntrospection:
    def test_views_snapshot(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b"])
        engine.add_node("b")
        views = engine.views()
        assert set(views) == {"a", "b"}
        assert views["a"][0].address == "b"

    def test_dead_link_count(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b", "c"])
        engine.add_node("b")
        engine.add_node("c")
        assert engine.dead_link_count() == 0
        engine.remove_node("b")
        assert engine.dead_link_count() == 1

    def test_service_accessor(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b"])
        engine.add_node("b")
        service = engine.service("a")
        assert service.get_peer() == "b"

    def test_shuffle_can_be_disabled(self):
        engine = make_engine()
        engine.shuffle_each_cycle = False
        random_bootstrap(engine, 10)
        engine.run(3)
        assert engine.cycle == 3


class TestAblations:
    """Each test flips one modelling decision and measures its effect on
    a converged (N=400, c=12, 50 cycles) overlay."""

    @staticmethod
    def converged(config, seed=0, shuffle=True, **kwargs):
        engine = CycleEngine(config, seed=seed, **kwargs)
        engine.shuffle_each_cycle = shuffle
        random_bootstrap(engine, 400)
        engine.run(50)
        return engine

    @staticmethod
    def self_links(engine):
        return sum(
            1
            for address, view in engine.views().items()
            for d in view
            if d.address == address
        )

    def test_keeping_self_descriptors_wastes_view_slots(self):
        base = newscast(view_size=12)
        dropped = self.converged(base)
        kept = self.converged(base.replace(keep_self_descriptors=True))
        assert self.self_links(dropped) == 0
        assert self.self_links(kept) > 0
        assert average_degree(GraphSnapshot.from_engine(kept)) <= (
            average_degree(GraphSnapshot.from_engine(dropped))
        )

    def test_activation_order_does_not_change_the_regime(self):
        config = newscast(view_size=12)
        shuffled = self.converged(config, shuffle=True)
        fixed = self.converged(config, shuffle=False)
        assert average_degree(GraphSnapshot.from_engine(fixed)) == (
            pytest.approx(
                average_degree(GraphSnapshot.from_engine(shuffled)), rel=0.1
            )
        )

    def test_live_peer_selection_is_what_lets_tail_selection_heal(self):
        config = ProtocolConfig.from_label("(tail,head,pushpull)", 12)

        def residual(omniscient):
            engine = self.converged(
                config, seed=3, omniscient_peer_selection=omniscient
            )
            massive_failure(engine, 0.5)
            initial = engine.dead_link_count()
            engine.run(30)
            return engine.dead_link_count() / initial

        with_oracle = residual(True)
        assert with_oracle < 0.1
        assert residual(False) > 3 * with_oracle
