"""Smoke tests: every experiment runs end to end at a tiny scale.

These do not validate the paper's claims (the integration tests and the
benchmarks do that at larger scales); they verify that each experiment
module's ``run``/``report`` pipeline is wired correctly.
"""

import dataclasses
import importlib

import pytest

from repro.experiments import EXPERIMENT_IDS
from repro.experiments.common import Scale

TINY = Scale(
    name="tiny",
    n_nodes=60,
    view_size=6,
    cycles=12,
    growth_cycles=3,
    runs=2,
    traced_nodes=5,
    removal_repeats=2,
    metrics_every=4,
    clustering_sample=30,
    path_sources=10,
)


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_experiment_runs_and_reports(experiment_id):
    # Experiment ids are user-facing (hyphenated); modules are importable.
    module_name = experiment_id.replace("-", "_")
    module = importlib.import_module(f"repro.experiments.{module_name}")
    result = module.run(scale=TINY, seed=1)
    report = module.report(result)
    assert isinstance(report, str)
    assert len(report.splitlines()) >= 3
    assert "tiny" in report


def test_table1_row_structure():
    from repro.experiments import table1

    result = table1.run(scale=TINY, seed=0)
    assert len(result.rows) == 4
    for row in result.rows:
        assert 0.0 <= row.partitioned_fraction <= 1.0
        assert row.runs == TINY.runs


def test_figure2_series_structure():
    from repro.experiments import figure2

    result = figure2.run(scale=TINY, seed=0)
    assert len(result.series) == 6
    for series in result.series:
        assert len(series.cycles) == len(series.clustering)
        assert len(series.cycles) == len(series.average_degree)
    assert set(result.baseline) == {
        "average_degree",
        "clustering",
        "average_path_length",
    }


@pytest.mark.parametrize("engine", ["cycle", "fast", "event", "fast-event"])
def test_figure3_covers_both_scenarios(engine):
    from repro.experiments import figure3

    scale = dataclasses.replace(TINY, default_engine=engine)
    result = figure3.run(scale=scale, seed=0)
    assert set(result.series) == {"lattice", "random"}
    assert len(result.series["lattice"]) == 8
    # Every engine family opens with the bootstrap overlay's cycle-0 row.
    for runs in result.series.values():
        assert all(s.cycles == [0, 4, 8, 12] for s in runs)


def test_figure4_checkpoints():
    from repro.experiments import figure4

    result = figure4.run(scale=TINY, seed=0)
    assert result.checkpoints[0] == 0
    assert result.checkpoints[-1] == TINY.cycles
    for snapshots in result.snapshots.values():
        assert [s.cycle for s in snapshots] == result.checkpoints
        for snapshot in snapshots:
            assert sum(snapshot.histogram.values()) == TINY.n_nodes


def test_table2_rows():
    from repro.experiments import table2

    result = table2.run(scale=TINY, seed=0)
    assert len(result.rows) == 8
    for row in result.rows:
        assert row.dynamics.n_traced == TINY.traced_nodes
        assert row.dynamics.n_cycles == TINY.cycles


def test_figure5_curves():
    from repro.experiments import figure5

    result = figure5.run(scale=TINY, seed=0)
    assert result.max_lag == TINY.cycles // 2
    assert len(result.curves) == 4
    for curve in result.curves.values():
        assert len(curve) == result.max_lag + 1
        assert curve[0] == pytest.approx(1.0)
    assert result.band > 0


def test_figure6_fractions():
    from repro.experiments import figure6

    result = figure6.run(scale=TINY, seed=0)
    assert result.fractions == [0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]
    assert len(result.outside) == 8
    for series in result.outside.values():
        assert len(series) == 7
        assert all(value >= 0 for value in series)


def test_figure7_series():
    from repro.experiments import figure7

    result = figure7.run(scale=TINY, seed=0)
    assert len(result.series) == 8
    for series in result.series:
        assert series.initial_dead_links > 0
        assert len(series.dead_links) == result.healing_cycles
