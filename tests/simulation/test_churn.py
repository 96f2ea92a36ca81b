"""Unit tests for churn and failure injection."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.simulation.churn import (
    CatastrophicFailure,
    ContinuousChurn,
    TemporaryPartition,
    dead_link_fraction,
    massive_failure,
)
from repro.simulation.engine import CycleEngine
from repro.simulation.scenarios import random_bootstrap


def make_engine(c=5, seed=0):
    return CycleEngine(ProtocolConfig.from_label("(rand,head,pushpull)", c), seed=seed)


class TestMassiveFailure:
    def test_removes_requested_fraction(self):
        engine = make_engine()
        random_bootstrap(engine, 100)
        victims = massive_failure(engine, 0.5)
        assert len(victims) == 50
        assert len(engine) == 50

    def test_leaves_dead_links_behind(self):
        engine = make_engine()
        random_bootstrap(engine, 100)
        massive_failure(engine, 0.5)
        assert engine.dead_link_count() > 0
        assert 0.0 < dead_link_fraction(engine) <= 1.0

    def test_fraction_bounds_validated(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        with pytest.raises(ConfigurationError):
            massive_failure(engine, 1.5)
        with pytest.raises(ConfigurationError):
            massive_failure(engine, -0.1)

    def test_zero_fraction_is_noop(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        assert massive_failure(engine, 0.0) == []
        assert len(engine) == 10


class TestCatastrophicFailure:
    def test_fires_at_scheduled_cycle(self):
        engine = make_engine()
        random_bootstrap(engine, 40)
        failure = CatastrophicFailure(at_cycle=3, fraction=0.5)
        engine.add_observer(failure)
        engine.run(3)
        assert not failure.fired
        engine.run(1)
        assert failure.fired
        assert len(engine) == 20

    def test_fires_only_once(self):
        engine = make_engine()
        random_bootstrap(engine, 40)
        failure = CatastrophicFailure(at_cycle=1, fraction=0.5)
        engine.add_observer(failure)
        engine.run(5)
        assert len(engine) == 20

    def test_validates_fraction(self):
        with pytest.raises(ConfigurationError):
            CatastrophicFailure(1, 2.0)


class TestContinuousChurn:
    def test_population_roughly_stable_with_balanced_churn(self):
        engine = make_engine()
        random_bootstrap(engine, 50)
        churn = ContinuousChurn(joins_per_cycle=3, leaves_per_cycle=3)
        engine.add_observer(churn)
        engine.run(10)
        assert len(engine) == 50
        assert churn.total_joined == 30
        assert churn.total_left == 30

    def test_net_growth(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        engine.add_observer(ContinuousChurn(joins_per_cycle=2, leaves_per_cycle=0))
        engine.run(5)
        assert len(engine) == 20

    def test_never_extinguishes_population(self):
        engine = make_engine()
        random_bootstrap(engine, 3)
        engine.add_observer(ContinuousChurn(joins_per_cycle=0, leaves_per_cycle=10))
        engine.run(5)
        assert len(engine) >= 1

    def test_validates_rates(self):
        with pytest.raises(ConfigurationError):
            ContinuousChurn(-1, 0)

    def test_builds_the_live_list_once_per_batch(self):
        # Regression: one O(N) addresses() per join (100 joins a cycle at
        # N=10^5 spent a quarter of the cycle there).  Joiners are
        # appended instead, so later joins of the batch may draw them,
        # exactly as when the list was rebuilt every time.
        engine, rebuilt = make_engine(seed=4), make_engine(seed=4)
        random_bootstrap(engine, 30)
        random_bootstrap(rebuilt, 30)
        calls = []
        addresses = engine.addresses
        engine.addresses = lambda: calls.append(None) or addresses()
        churn = ContinuousChurn(joins_per_cycle=8, leaves_per_cycle=0)
        for _ in range(3):
            churn.before_cycle(engine)
            for _ in range(8):
                rebuilt.add_node(
                    contacts=[rebuilt.rng.choice(rebuilt.addresses())]
                )
        assert len(calls) == 3 and churn.total_joined == 24
        assert [a for a, view in engine.views().items()] == rebuilt.addresses()
        assert engine.rng.getstate() == rebuilt.rng.getstate()
        assert {
            a: [d.address for d in view] for a, view in engine.views().items()
        } == {
            a: [d.address for d in view] for a, view in rebuilt.views().items()
        }


class TestTemporaryPartition:
    def test_blocks_cross_group_messages_while_active(self):
        engine = make_engine()
        random_bootstrap(engine, 40)
        partition = TemporaryPartition(start_cycle=0, end_cycle=5)
        engine.add_observer(partition)
        engine.run(1)
        assert partition.active
        assert engine.reachable is not None
        group0 = partition.group_members(engine, 0)
        group1 = partition.group_members(engine, 1)
        assert engine.reachable(group0[0], group0[1])
        assert not engine.reachable(group0[0], group1[0])

    def test_heals_after_end_cycle(self):
        engine = make_engine()
        random_bootstrap(engine, 20)
        partition = TemporaryPartition(start_cycle=1, end_cycle=3)
        engine.add_observer(partition)
        engine.run(5)
        assert not partition.active
        assert engine.reachable is None

    def test_groups_cover_population(self):
        engine = make_engine()
        random_bootstrap(engine, 30)
        partition = TemporaryPartition(start_cycle=0, end_cycle=2, n_groups=3)
        engine.add_observer(partition)
        engine.run(1)
        members = [partition.group_members(engine, g) for g in range(3)]
        assert sum(len(m) for m in members) == 30
        assert all(len(m) == 10 for m in members)

    def test_validates_cycle_order_and_groups(self):
        with pytest.raises(ConfigurationError):
            TemporaryPartition(5, 5)
        with pytest.raises(ConfigurationError):
            TemporaryPartition(0, 5, n_groups=1)

    def test_nodes_joining_mid_partition_are_unconstrained(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        partition = TemporaryPartition(start_cycle=0, end_cycle=9)
        engine.add_observer(partition)
        engine.run(1)
        newcomer = engine.add_node(contacts=[engine.addresses()[0]])
        assert engine.reachable(newcomer, engine.addresses()[0])

    @pytest.mark.parametrize(
        "engine_name", ("cycle", "fast", "event", "fast-event", "fast-sharded")
    )
    def test_mid_window_joiner_exchanges_with_both_sides(self, engine_name):
        # A joiner belongs to no group.  Two nodes, split one per side,
        # cannot reach each other, so each can only have learnt the
        # joiner's address in an exchange with the joiner itself.
        from repro.experiments.common import make_engine as registry_engine

        config = ProtocolConfig.from_label("(rand,head,pushpull)", 5)
        engine = registry_engine(config, seed=2, engine=engine_name)
        random_bootstrap(engine, 2)
        partition = TemporaryPartition(start_cycle=1, end_cycle=30)
        engine.add_observer(partition)
        engine.run(2)
        left, right = engine.addresses()
        assert partition.active and not engine.reachable(left, right)
        joiner = engine.add_node(contacts=[left, right])
        engine.run(10)
        assert partition.active and joiner not in partition.groups
        holders = {a for a, peers, _ in engine.view_rows() if joiner in peers}
        assert holders == {left, right}
        if hasattr(engine, "close"):
            engine.close()


def test_dead_link_fraction_empty_engine():
    assert dead_link_fraction(make_engine()) == 0.0
