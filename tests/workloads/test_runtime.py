"""ScenarioRuntime: compilation, trace generation, handles, guards."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.simulation.engine import CycleEngine
from repro.workloads import (
    CatastrophicFailure,
    ChurnTrace,
    ContinuousChurn,
    FailureHandle,
    Grow,
    Heal,
    Partition,
    ScenarioSpec,
    compile_scenario,
    generate_trace,
    prepare_run,
)

NEWSCAST = ProtocolConfig.from_label("(rand,head,pushpull)", 8)


class TestTraceGeneration:
    def test_deterministic(self):
        event = ChurnTrace(rate=2.0, session_length=5.0, trace_seed=3)
        assert generate_trace(event, 20) == generate_trace(event, 20)

    def test_trace_seed_changes_timeline(self):
        a = ChurnTrace(rate=2.0, session_length=5.0, trace_seed=3)
        b = ChurnTrace(rate=2.0, session_length=5.0, trace_seed=4)
        assert generate_trace(a, 20) != generate_trace(b, 20)

    def test_sorted_and_bounded(self):
        event = ChurnTrace(
            rate=3.0, session_length=2.0, start_cycle=2, end_cycle=8
        )
        trace = generate_trace(event, 10)
        times = [entry.time for entry in trace]
        assert times == sorted(times)
        joins = [e for e in trace if e.action == 0]
        assert joins and all(2 <= e.time < 8 for e in joins)
        assert all(e.time < 10 for e in trace)

    def test_zero_rate_empty(self):
        assert generate_trace(ChurnTrace(rate=0.0), 10) == []

    def test_leaves_pair_with_joins(self):
        trace = generate_trace(
            ChurnTrace(rate=2.0, session_length=1.0, trace_seed=1), 30
        )
        join_keys = {e.key for e in trace if e.action == 0}
        leave_keys = {e.key for e in trace if e.action == 1}
        assert leave_keys <= join_keys


class TestCompile:
    def test_requires_fresh_engine(self):
        engine = CycleEngine(NEWSCAST, seed=0)
        engine.add_node()
        with pytest.raises(ConfigurationError, match="freshly built"):
            compile_scenario(
                ScenarioSpec(), engine, n_nodes=10, cycles=5
            )

    def test_requires_population_and_cycles(self):
        engine = CycleEngine(NEWSCAST, seed=0)
        with pytest.raises(ConfigurationError, match="n_nodes"):
            compile_scenario(ScenarioSpec(), engine, cycles=5)
        with pytest.raises(ConfigurationError, match="cycles"):
            compile_scenario(
                ScenarioSpec(), CycleEngine(NEWSCAST, seed=0), n_nodes=10
            )

    def test_latency_rejected_for_cycle_engine(self):
        engine = CycleEngine(NEWSCAST, seed=0)
        with pytest.raises(
            ConfigurationError, match="needs 'latency'.*event, fast-event"
        ):
            compile_scenario(
                ScenarioSpec(latency=0.2), engine, n_nodes=10, cycles=5
            )

    def test_latency_applied_to_event_engine(self):
        runtime = prepare_run(
            ScenarioSpec(latency=0.25, loss=0.05),
            NEWSCAST,
            n_nodes=10,
            cycles=3,
            seed=0,
            engine="event",
        )
        assert runtime.engine.latency.delay == pytest.approx(0.25)
        assert runtime.engine.loss.probability == pytest.approx(0.05)

    def test_handles_in_declaration_order(self):
        spec = ScenarioSpec(
            cycles=10,
            events=(
                CatastrophicFailure(at_cycle=4, fraction=0.2),
                ContinuousChurn(joins_per_cycle=1, leaves_per_cycle=1),
                Partition(at_cycle=2),
                Heal(at_cycle=6),
            ),
        )
        runtime = prepare_run(spec, NEWSCAST, n_nodes=20, seed=0)
        kinds = [type(h).__name__ for h in runtime.handles]
        assert kinds == [
            "FailureHandle",
            "ContinuousChurn",
            "TemporaryPartition",
        ]

    def test_missing_handle_raises(self):
        runtime = prepare_run(
            ScenarioSpec(cycles=3), NEWSCAST, n_nodes=10, seed=0
        )
        with pytest.raises(ConfigurationError, match="compiled no"):
            runtime.handle(FailureHandle)


class TestExecution:
    def test_failure_handle_captures_initial_dead_links(self):
        spec = ScenarioSpec(
            cycles=10,
            events=(CatastrophicFailure(at_cycle=6, fraction=0.5),),
        )
        runtime = prepare_run(spec, NEWSCAST, n_nodes=40, seed=1)
        runtime.run_to_cycle(6)
        handle = runtime.handle(FailureHandle)
        assert handle.dead_links_after is None  # fires at cycle-7 start
        runtime.run_to_end()
        assert handle.fired
        assert handle.dead_links_after > 0
        assert len(runtime.engine) == 20

    def test_growing_spec_reaches_target(self):
        spec = ScenarioSpec(
            bootstrap="empty",
            cycles=12,
            events=(Grow(target=30, per_cycle=5),),
        )
        runtime = prepare_run(spec, NEWSCAST, n_nodes=30, seed=0)
        assert runtime.bootstrap_addresses == []
        runtime.run_to_end()
        assert len(runtime.engine) == 30

    def test_run_to_cycle_idempotent(self):
        runtime = prepare_run(
            ScenarioSpec(cycles=6), NEWSCAST, n_nodes=15, seed=0
        )
        runtime.run_to_cycle(4)
        digest = runtime.views_digest()
        runtime.run_to_cycle(4)
        runtime.run_to_cycle(2)
        assert runtime.views_digest() == digest
        assert runtime.engine.cycle == 4

    def test_churn_trace_sessions_join_and_leave(self):
        spec = ScenarioSpec(
            cycles=15,
            events=(
                ChurnTrace(rate=2.0, session_length=3.0, trace_seed=9),
            ),
        )
        runtime = prepare_run(spec, NEWSCAST, n_nodes=20, seed=0)
        joins = sum(1 for e in runtime.trace if e.action == 0)
        assert joins > 0
        runtime.run_to_end()
        assert runtime.engine.cycle == 15
        # all scheduled events were applied
        assert runtime._trace_pos == len(runtime.trace)

    def test_churn_trace_exact_times_on_event_engine(self):
        spec = ScenarioSpec(
            cycles=10,
            events=(
                ChurnTrace(rate=1.0, session_length=2.0, trace_seed=4),
            ),
        )
        runtime = prepare_run(
            spec, NEWSCAST, n_nodes=20, seed=0, engine="event"
        )
        runtime.run_to_end()
        assert runtime.engine.now == pytest.approx(10.0)
        assert runtime.engine.cycle == 10

    def test_partitions_pair_by_time_not_declaration_order(self):
        # A heal may be declared before its partition; pairing follows
        # at_cycle order, like the spec-level nesting validation.
        spec = ScenarioSpec(
            cycles=12,
            events=(
                Heal(at_cycle=4),
                Partition(at_cycle=8, n_groups=3),
                Partition(at_cycle=2, n_groups=2),
                Heal(at_cycle=10),
            ),
        )
        runtime = prepare_run(spec, NEWSCAST, n_nodes=20, seed=0)
        windows = [
            (h.start_cycle, h.end_cycle, h.n_groups)
            for h in runtime.handles
        ]
        assert windows == [(2, 4, 2), (8, 10, 3)]
        runtime.run_to_end()  # both splits execute without error

    def test_event_engine_custom_period_runs_full_schedule(self):
        # run_time takes simulated time, not periods: with period=2.0
        # the schedule must still complete all cycles and place trace
        # events at the right cycle.
        spec = ScenarioSpec(
            cycles=6,
            events=(
                ChurnTrace(rate=1.0, session_length=2.0, trace_seed=4),
            ),
        )
        for engine in ("event", "fast-event"):
            runtime = prepare_run(
                spec, NEWSCAST, n_nodes=20, seed=0, engine=engine,
                period=2.0,
            )
            runtime.run_to_end()
            assert runtime.engine.cycle == 6, engine
            assert runtime.engine.now == pytest.approx(12.0)
            assert runtime._trace_pos == len(runtime.trace)

    def test_partition_splits_and_heals(self):
        spec = ScenarioSpec(
            cycles=10,
            events=(Partition(at_cycle=2, n_groups=2), Heal(at_cycle=6)),
        )
        runtime = prepare_run(spec, NEWSCAST, n_nodes=20, seed=0)
        runtime.run_to_cycle(4)
        assert runtime.engine.reachable is not None  # split active
        runtime.run_to_end()
        assert runtime.engine.reachable is None  # healed
