"""Unit tests for the event-driven engine."""

import pytest

from repro.core.config import ProtocolConfig, newscast
from repro.graph.metrics import average_degree
from repro.graph.snapshot import GraphSnapshot
from repro.simulation.event_engine import EventEngine
from repro.simulation.network import (
    BernoulliLoss,
    ConstantLatency,
    UniformLatency,
)
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.trace import Observer


def make_engine(label="(rand,head,pushpull)", c=5, seed=0, **kwargs):
    return EventEngine(ProtocolConfig.from_label(label, c), seed=seed, **kwargs)


class TestConstruction:
    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            make_engine(period=0)

    def test_default_latency_scales_with_period(self):
        engine = make_engine(period=10.0)
        assert engine.latency.delay == pytest.approx(1.0)

    def test_clock_starts_at_zero(self):
        assert make_engine().now == 0.0


class TestExecution:
    def test_run_advances_time_and_cycles(self):
        engine = make_engine()
        random_bootstrap(engine, 10)
        engine.run(5)
        assert engine.now == pytest.approx(5.0)
        assert engine.cycle == 5

    def test_every_node_initiates_roughly_once_per_cycle(self):
        engine = make_engine()
        random_bootstrap(engine, 20)
        engine.run(10)
        initiations = [n.exchanges_initiated for n in engine.nodes()]
        assert all(9 <= count <= 11 for count in initiations)

    def test_exchanges_complete_with_latency(self):
        engine = make_engine(latency=ConstantLatency(0.05))
        random_bootstrap(engine, 10)
        engine.run(3)
        assert engine.completed_exchanges > 0

    def test_deterministic_given_seed(self):
        def fingerprint(seed):
            engine = make_engine(seed=seed)
            random_bootstrap(engine, 15)
            engine.run(5)
            return {
                a: tuple((d.address, d.hop_count) for d in view)
                for a, view in engine.views().items()
            }

        assert fingerprint(3) == fingerprint(3)
        assert fingerprint(3) != fingerprint(4)

    def test_total_loss_prevents_all_exchanges(self):
        engine = make_engine(loss=BernoulliLoss(1.0))
        random_bootstrap(engine, 10)
        engine.run(3)
        assert engine.completed_exchanges == 0
        assert engine.messages_lost == engine.messages_sent
        assert engine.messages_sent > 0

    def test_partial_loss_still_converges(self):
        engine = make_engine(c=5, loss=BernoulliLoss(0.3), seed=1)
        engine.add_node("hub")
        engine.add_nodes(15, contacts=["hub"])
        engine.run(20)
        sizes = [len(n.view) for n in engine.nodes()]
        assert min(sizes) >= 3

    def test_crashed_node_timer_dies(self):
        engine = make_engine()
        random_bootstrap(engine, 5)
        victim = engine.addresses()[0]
        engine.remove_node(victim)
        engine.run(3)
        assert victim not in engine

    def test_messages_to_crashed_nodes_fail(self):
        engine = make_engine(
            "(rand,head,push)", omniscient_peer_selection=False
        )
        engine.add_node("a", contacts=["ghost"])
        engine.run(2)
        assert engine.failed_exchanges > 0

    def test_reachability_predicate_blocks_messages(self):
        engine = make_engine()
        engine.add_node("a", contacts=["b"])
        engine.add_node("b", contacts=["a"])
        engine.reachable = lambda src, dst: False
        engine.run(3)
        assert engine.completed_exchanges == 0
        assert engine.messages_lost > 0

    def test_incremental_runs_match_one_shot(self):
        # N run_cycle() calls must end at exactly N * period -- with a
        # non-binary period, a float-accumulated horizon falls short of
        # the Nth boundary and silently drops its observers.
        def fingerprint(step):
            engine = make_engine(seed=4, period=0.1)
            random_bootstrap(engine, 12)
            if step:
                for _ in range(10):
                    engine.run_cycle()
            else:
                engine.run(10)
            return (
                engine.cycle,
                {
                    a: tuple((d.address, d.hop_count) for d in view)
                    for a, view in engine.views().items()
                },
            )

        stepped = fingerprint(True)
        assert stepped[0] == 10
        assert stepped == fingerprint(False)

    def test_chained_run_time_reaches_boundaries(self):
        # ten run_time(0.1) calls must fire the cycle-1 boundary exactly
        # like one run_time(1.0): the horizon accumulates on an integer
        # grid, not as a drifting float sum.
        engine = make_engine(seed=4)
        random_bootstrap(engine, 8)
        for _ in range(10):
            engine.run_time(0.1)
        assert engine.cycle == 1
        assert engine.now == pytest.approx(1.0)

    def test_observers_fire_once_per_period(self):
        ticks = []

        class Ticker(Observer):
            def after_cycle(self, engine):
                ticks.append(engine.cycle)

        engine = make_engine()
        random_bootstrap(engine, 5)
        engine.add_observer(Ticker())
        engine.run(4)
        assert ticks == [1, 2, 3, 4]


class TestConvergenceParity:
    def test_event_engine_reaches_cycle_engine_degree_range(self):
        # The asynchronous engine must converge to the same average degree
        # regime as the synchronous one.
        from repro.simulation.engine import CycleEngine

        config = newscast(view_size=8)
        cycle_engine = CycleEngine(config, seed=2)
        random_bootstrap(cycle_engine, 150)
        cycle_engine.run(40)
        event_engine = EventEngine(config, seed=2)
        random_bootstrap(event_engine, 150)
        event_engine.run(40)
        cycle_deg = average_degree(GraphSnapshot.from_engine(cycle_engine))
        event_deg = average_degree(GraphSnapshot.from_engine(event_engine))
        assert cycle_deg == pytest.approx(event_deg, rel=0.25)

    def test_latency_keeps_the_regime_and_loss_degrades_gracefully(self):
        # Random latency up to a fifth of a period reproduces the cycle
        # model's degree within 15%; 20% message loss still leaves the
        # overlay above 70% of it.
        from repro.simulation.engine import CycleEngine

        config = newscast(view_size=12)

        def degree(engine):
            random_bootstrap(engine, 300)
            engine.run(40)
            return average_degree(GraphSnapshot.from_engine(engine))

        latency = UniformLatency(0.01, 0.2)
        cycle = degree(CycleEngine(config, seed=1))
        event = degree(EventEngine(config, seed=1, latency=latency))
        lossy = degree(
            EventEngine(
                config, seed=1, latency=latency, loss=BernoulliLoss(0.2)
            )
        )
        assert event == pytest.approx(cycle, rel=0.15)
        assert lossy > 0.7 * cycle
