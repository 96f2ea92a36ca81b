"""Unit tests for the array-backed fast cycle engine.

The differential suite pins ``FastCycleEngine`` to the reference engine's
behavior; these tests cover the population-management API surface, the
node/view proxies and the engine-specific knobs (backend selection, row
free-list recycling) directly.
"""

import pytest

from repro.core.config import ProtocolConfig, newscast
from repro.core.descriptor import NodeDescriptor
from repro.core.errors import (
    ConfigurationError,
    NodeNotFoundError,
    ViewError,
)
from repro.experiments.common import ENGINES
from repro.experiments.common import make_engine as make_registry_engine
from repro.simulation._fastcore import load_accelerator
from repro.simulation.fast import FastCycleEngine, FastNode
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.trace import Observer

HAVE_ACCEL = load_accelerator() is not None


def make_engine(label="(rand,head,pushpull)", c=5, seed=0, **kwargs):
    return FastCycleEngine(
        ProtocolConfig.from_label(label, c), seed=seed, **kwargs
    )


class TestConstruction:
    def test_requires_config(self):
        with pytest.raises(ConfigurationError):
            FastCycleEngine()

    def test_rejects_node_factory(self):
        with pytest.raises(ConfigurationError):
            FastCycleEngine(newscast(5), node_factory=lambda a, r: None)

    def test_accelerate_false_disables_backend(self):
        engine = make_engine(accelerate=False)
        assert not engine.accelerated

    @pytest.mark.skipif(not HAVE_ACCEL, reason="no C compiler available")
    def test_accelerate_true_enables_backend(self):
        engine = make_engine(accelerate=True)
        assert engine.accelerated

    def test_accelerate_true_without_compiler_raises(self, monkeypatch):
        # The accelerator is loaded by the shared flat-array kernel base.
        import repro.simulation.arrayviews as kernel_module

        monkeypatch.setattr(
            kernel_module, "load_accelerator", lambda: None
        )
        with pytest.raises(ConfigurationError):
            make_engine(accelerate=True)

    def test_rejected_build_is_reported_not_misreported(
        self, monkeypatch, tmp_path
    ):
        # A compiler that runs and rejects the source is not "no usable
        # C compiler": accelerate=True must say what cc said.
        import repro.simulation._fastcore as fastcore

        stub = tmp_path / "bin" / "cc"
        stub.parent.mkdir()
        stub.write_text(
            "#!/bin/sh\necho 'stub cc: source rejected' >&2\nexit 1\n"
        )
        stub.chmod(0o755)
        monkeypatch.setenv("PATH", str(stub.parent))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.delenv(fastcore.DISABLE_ENV_VAR, raising=False)
        monkeypatch.setattr(fastcore, "_attempted", False)
        monkeypatch.setattr(fastcore, "_cached", None)
        monkeypatch.setattr(fastcore, "_failure", "")
        with pytest.raises(
            ConfigurationError, match="status 1: stub cc: source rejected"
        ):
            make_engine(accelerate=True)
        assert not make_engine().accelerated  # accelerate=None: silent


class TestPopulation:
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
        assert [d.address for d in engine.node(joiner).view] == ["hub"]

    def test_own_address_not_a_contact(self):
        engine = make_engine()
        address = engine.add_node("x", contacts=["x"])
        assert len(engine.node(address).view) == 0

    def test_duplicate_contacts_consume_capacity_like_reference(self):
        # PeerSamplingService.init truncates before deduplicating; the
        # fast engine replicates that exactly.
        engine = make_engine(c=2)
        address = engine.add_node(contacts=["b", "b", "d"])
        assert [d.address for d in engine.node(address).view] == ["b"]

    def test_remove_node(self):
        engine = make_engine()
        engine.add_node("a")
        engine.remove_node("a")
        assert "a" not in engine
        with pytest.raises(NodeNotFoundError):
            engine.remove_node("a")

    def test_node_lookup_missing_raises(self):
        with pytest.raises(NodeNotFoundError):
            make_engine().node("ghost")

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

    def test_removed_address_can_rejoin_with_same_identity(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b"])
        engine.add_node("b")
        engine.remove_node("b")
        assert engine.dead_link_count() == 1
        engine.add_node("b")
        # the stale descriptor points at the rejoined node again
        assert engine.dead_link_count() == 0

    def test_row_recycling_bounds_storage(self):
        engine = make_engine(c=4)
        engine.add_nodes(10)
        rows_at_peak = len(engine._vlen)
        for _ in range(5):
            engine.crash_random_nodes(5)
            engine.add_nodes(5)
        assert len(engine._vlen) <= rows_at_peak + 5

    def test_addresses_in_insertion_order(self):
        engine = make_engine()
        engine.add_node("b")
        engine.add_node("a")
        engine.remove_node("b")
        engine.add_node("b")  # re-added: moves to the end, like a dict
        assert engine.addresses() == ["a", "b"]


class TestExecution:
    def test_run_counts_cycles(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        engine.run(7)
        assert engine.cycle == 7

    def test_single_node_skips_turn(self):
        engine = make_engine()
        engine.add_node("lonely")
        engine.run_cycle()
        assert engine.completed_exchanges == 0

    def test_completed_exchanges_counted(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b"])
        engine.add_node("b", contacts=["a"])
        engine.run_cycle()
        assert engine.completed_exchanges == 2

    def test_exchange_with_dead_peer_is_lost(self):
        engine = FastCycleEngine(
            ProtocolConfig.from_label("(rand,head,push)", 5),
            seed=0,
            omniscient_peer_selection=False,
        )
        engine.add_node("a", contacts=["ghost"])
        engine.run_cycle()
        assert engine.failed_exchanges == 1
        assert engine.completed_exchanges == 0

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

    def test_observer_may_crash_nodes_mid_run(self):
        class Reaper(Observer):
            def before_cycle(self, engine):
                if engine.cycle == 1 and len(engine) > 2:
                    engine.crash_random_nodes(len(engine) - 2)

        engine = make_engine()
        random_bootstrap(engine, 10)
        engine.add_observer(Reaper())
        engine.run(3)
        assert len(engine) == 2

    def test_shuffle_can_be_disabled(self):
        engine = make_engine()
        engine.shuffle_each_cycle = False
        random_bootstrap(engine, 10)
        engine.run(3)
        assert engine.cycle == 3


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

    def test_nodes_returns_live_handles(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b"])
        engine.add_node("b")
        nodes = engine.nodes()
        assert all(isinstance(n, FastNode) for n in nodes)
        assert [n.address for n in nodes] == ["a", "b"]
        assert [d.address for d in nodes[0].view] == ["b"]

    def test_graph_snapshot_integration(self):
        from repro.graph.snapshot import GraphSnapshot

        engine = make_engine(c=5)
        random_bootstrap(engine, 30)
        engine.run(5)
        snapshot = GraphSnapshot.from_engine(engine)
        assert snapshot.n == 30
        assert snapshot.edge_count > 0


@pytest.fixture(params=sorted(ENGINES))
def any_engine(request):
    """Every registry engine at c = 2 (the node contract is shared)."""
    engine = make_registry_engine(
        ProtocolConfig.from_label("(rand,head,pushpull)", 2),
        seed=0,
        engine=request.param,
    )
    yield engine
    getattr(engine, "close", lambda: None)()


class TestViewProxy:
    """The node contract, ``engine.node(a).view``, on every registry engine."""

    def test_iteration(self, any_engine):
        any_engine.add_node("a", contacts=["b", "c"])
        view = any_engine.node("a").view
        assert (len(view), view.capacity) == (2, 2)
        assert all(isinstance(d, NodeDescriptor) for d in view)
        assert [(d.address, d.hop_count) for d in view] == [("b", 0), ("c", 0)]

    def test_replace_validates_capacity(self, any_engine):
        any_engine.add_node("a")
        with pytest.raises(ViewError):
            any_engine.node("a").view.replace(
                [NodeDescriptor(i, 0) for i in range(3)]
            )

    def test_replace_deduplicates_and_sorts(self, any_engine):
        any_engine.add_node("a")
        view = any_engine.node("a").view
        view.replace(
            [
                NodeDescriptor("x", 5),
                NodeDescriptor("y", 1),
                NodeDescriptor("x", 2),
            ]
        )
        assert [(d.address, d.hop_count) for d in view] == [
            ("y", 1),
            ("x", 2),
        ]

    def test_crashed_node_has_no_handle(self, any_engine):
        any_engine.add_node("a")
        any_engine.add_node("b", contacts=["a"])
        any_engine.remove_node("a")
        with pytest.raises(NodeNotFoundError):
            any_engine.node("a")
        assert [d.address for d in any_engine.node("b").view] == ["a"]
