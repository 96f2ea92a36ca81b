"""Parallel ``run_plan``: the serial/parallel byte-identity contract.

Parallel execution is only trustworthy if the results are provably
independent of scheduling: every test here pins that ``workers=N``
produces record-for-record byte-identity -- overlay digests, measurement
series, metadata, ordering -- with ``workers=1``, across both engine
families, plus the failure modes only worker processes have (crash,
timeout) surfacing as :class:`~repro.core.errors.PlanExecutionError`.
"""

import os

import pytest

from repro.core.errors import ConfigurationError, PlanExecutionError
from repro.experiments.common import SCALES, resolve_workers
from repro.workloads import (
    AdversarySpec,
    CatastrophicFailure,
    ChurnTrace,
    ContinuousChurn,
    ExperimentPlan,
    ScenarioSpec,
    plan_cells,
    run_plan,
    run_plans,
)


def cycle_family_plan(**overrides) -> ExperimentPlan:
    defaults = dict(
        name="parallel-cycle",
        scenario=ScenarioSpec(
            name="crash-and-churn",
            bootstrap="random",
            cycles=6,
            events=(
                CatastrophicFailure(at_cycle=4, fraction=0.3),
                ContinuousChurn(joins_per_cycle=2, leaves_per_cycle=2),
            ),
        ),
        protocols=("(rand,head,pushpull)", "(tail,rand,push);H1S1"),
        scales=("quick",),
        engines=("cycle", "fast"),
        seeds=(0, 1),
        n_nodes=36,
        measurements=(
            "dead-links",
            "dead-links-initial",
            "components",
            "degrees",
        ),
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def event_family_plan(**overrides) -> ExperimentPlan:
    defaults = dict(
        name="parallel-event",
        scenario=ScenarioSpec(
            name="lossy-trace",
            bootstrap="random",
            cycles=5,
            latency=0.2,
            loss=0.05,
            events=(
                ChurnTrace(rate=1.0, session_length=3.0, trace_seed=4),
            ),
        ),
        protocols=("(rand,head,pushpull)", "(rand,rand,push)"),
        scales=("quick",),
        engines=("event", "fast-event"),
        seeds=(2,),
        n_nodes=30,
        measurements=("view-sizes", "degrees"),
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def canonical(result):
    return [record.canonical_dict() for record in result.records]


class TestByteIdentity:
    def test_cycle_family_workers_4_matches_serial(self):
        plan = cycle_family_plan()
        serial = run_plan(plan, workers=1)
        parallel = run_plan(plan, workers=4)
        assert len(parallel.records) == plan.total_runs == 8
        assert canonical(parallel) == canonical(serial)
        assert parallel.records_digest() == serial.records_digest()
        assert [r.views_digest for r in parallel.records] == [
            r.views_digest for r in serial.records
        ]

    def test_event_family_workers_4_matches_serial(self):
        plan = event_family_plan()
        serial = run_plan(plan, workers=1)
        parallel = run_plan(plan, workers=4)
        assert len(parallel.records) == plan.total_runs == 4
        assert canonical(parallel) == canonical(serial)
        assert parallel.records_digest() == serial.records_digest()

    def test_records_stream_in_plan_order(self):
        plan = cycle_family_plan()
        expected = [cell.seed for cell in plan_cells(plan)]
        streamed = []
        run_plan(
            plan,
            on_record=lambda record: streamed.append(record.seed),
            workers=3,
        )
        assert streamed == expected

    def test_run_plans_shares_one_pool_and_keeps_plan_order(self):
        plans = [
            cycle_family_plan(seeds=(5,), engines=("fast",)),
            cycle_family_plan(
                name="second", seeds=(6, 7), engines=("cycle",)
            ),
        ]
        combined = run_plans(plans, workers=3)
        separate = [run_plan(plan, workers=1) for plan in plans]
        assert [canonical(result) for result in combined] == [
            canonical(result) for result in separate
        ]
        assert combined[0].workers == 3

    def test_workers_recorded_in_result(self):
        plan = cycle_family_plan(
            protocols=("(rand,head,pushpull)",),
            engines=("fast",),
            seeds=(0, 1),
        )
        result = run_plan(plan, workers=2)
        assert result.workers == 2
        assert run_plan(plan).workers == 1  # quick scale defaults serial
        assert result.to_dict()["workers"] == 2

    def test_repro_workers_env_resolves(self, monkeypatch):
        plan = cycle_family_plan(
            protocols=("(rand,head,pushpull)",),
            engines=("fast",),
            seeds=(0, 1),
        )
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert run_plan(plan).workers == 2


class TestWorkerResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_full_scale_defaults_to_cpu_count(self):
        assert resolve_workers(None, scales=(SCALES["full"],)) == (
            os.cpu_count() or 1
        )

    def test_quick_scale_defaults_serial(self):
        assert resolve_workers(None, scales=(SCALES["quick"],)) == 1

    def test_mixed_scales_honour_the_per_core_sentinel(self, monkeypatch):
        # Regression: 0 (= one per core) is numerically the smallest
        # default, so a naive max() over a quick+full plan picked serial.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert (
            resolve_workers(None, scales=(SCALES["quick"], SCALES["full"]))
            == 8
        )

    def test_workers_clamped_to_cell_count(self):
        plan = cycle_family_plan(
            protocols=("(rand,head,pushpull)",),
            engines=("fast",),
            seeds=(0,),
        )
        result = run_plan(plan, workers=4)  # 1 cell: serial, and says so
        assert result.workers == 1

    def test_single_core_scale_default_falls_back_to_serial(
        self, monkeypatch
    ):
        # Regression: a scale-defaulted pool on a one-core box spawned
        # worker processes that only added IPC overhead (a 0.5x slowdown
        # was measured).  The scale-default branch now resolves serial
        # there.
        from dataclasses import replace

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        pooled = replace(SCALES["quick"], default_workers=4)
        assert resolve_workers(None, scales=(pooled,)) == 1
        assert resolve_workers(None, scales=(SCALES["full"],)) == 1

    def test_single_core_explicit_request_still_wins(self, monkeypatch):
        # ...but an explicit ask for a pool -- argument or environment --
        # is honoured even on one core: the user asked for it.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers(4) == 4
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None, scales=(SCALES["quick"],)) == 4

    def test_malformed_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_workers(-1)


class TestFailurePropagation:
    def bad_plan(self) -> ExperimentPlan:
        # Valid as a plan and at expansion, but every cell fails in
        # prepare_run: attacker index 50 does not exist among the 20
        # bootstrapped nodes, which only the placement can tell.
        return ExperimentPlan(
            name="doomed",
            scenario=ScenarioSpec(
                name="attacker-out-of-range",
                bootstrap="random",
                adversary=AdversarySpec(kind="hub", attackers=(50,)),
            ),
            protocols=("(rand,head,pushpull)",),
            scales=("quick",),
            engines=("fast",),
            seeds=(0, 1),
            n_nodes=20,
            cycles=2,
        )

    def test_cell_failure_serial_names_the_cell(self):
        with pytest.raises(PlanExecutionError, match="attacker-out-of-range"):
            run_plan(self.bad_plan(), workers=1)

    def test_cell_failure_parallel_names_the_cell(self):
        with pytest.raises(PlanExecutionError, match="attacker-out-of-range") as info:
            run_plan(self.bad_plan(), workers=2)
        assert isinstance(info.value.__cause__, ConfigurationError)

    def test_child_crash_surfaces_as_plan_execution_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS_FAULT", "exit")
        plan = cycle_family_plan(engines=("fast",), seeds=(0, 1))
        with pytest.raises(PlanExecutionError, match="worker process died"):
            run_plan(plan, workers=2)

    def test_timeout_parallel(self):
        # Cells big enough that two of them cannot finish in 50 ms.
        plan = cycle_family_plan(
            engines=("cycle",),
            seeds=(0, 1),
            protocols=("(rand,head,pushpull)",),
            n_nodes=300,
            cycles=40,
            measurements=(),
        )
        with pytest.raises(PlanExecutionError, match="timed out"):
            run_plan(plan, workers=2, timeout=0.05)

    def test_timeout_serial(self):
        plan = cycle_family_plan(
            engines=("cycle",),
            seeds=(0, 1),
            protocols=("(rand,head,pushpull)",),
            n_nodes=200,
            cycles=20,
            measurements=(),
        )
        with pytest.raises(PlanExecutionError, match="timed out"):
            run_plan(plan, workers=1, timeout=1e-9)
