"""The paper artefacts, regenerated, assert the paper's claims.

Each test runs one artefact module (Tables 1-2, Figures 2-7) at the
``quick`` preset (N=500, c=12, 90 cycles, 8 runs) and checks the
qualitative claims the paper draws from that table or figure.  The runs
use the ``fast`` engine, which is byte-identical to ``cycle`` for the
same seed, so the numbers are the cycle engine's.
"""

import dataclasses

import pytest

from repro.baselines.random_topology import expected_average_degree
from repro.experiments import (
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    table1,
    table2,
)
from repro.experiments.common import SCALES

SCALE = dataclasses.replace(SCALES["quick"], default_engine="fast")


def test_table1_head_view_selection_partitions_while_growing():
    rows = {row.label: row for row in table1.run(scale=SCALE, seed=0).rows}
    assert rows["(rand,head,push)"].partitioned_fraction >= 0.5
    assert rows["(tail,head,push)"].partitioned_fraction >= 0.5
    assert rows["(rand,rand,push)"].partitioned_fraction <= 0.4
    assert rows["(tail,rand,push)"].partitioned_fraction <= 0.4
    # Partitioned head runs split into several clusters.
    assert rows["(tail,head,push)"].avg_num_clusters >= 2.0


def test_table2_degree_dynamics():
    rows = {
        row.label: row.dynamics for row in table2.run(scale=SCALE, seed=0).rows
    }
    # d_bar tracks D_K for every protocol (no drifting subpopulations).
    for label, dynamics in rows.items():
        assert dynamics.traced_mean == pytest.approx(
            dynamics.final_cycle_mean_degree, rel=0.15
        ), label
    # rand view selection: sqrt(sigma) several times larger than head.
    for ps in ("rand", "tail"):
        for vp in ("push", "pushpull"):
            head = rows[f"({ps},head,{vp})"].traced_std
            rand = rows[f"({ps},rand,{vp})"].traced_std
            assert rand > 2 * head, (ps, vp)
    # Head protocols sit below the random baseline; rand ones near it.
    baseline = expected_average_degree(SCALE.n_nodes, SCALE.view_size)
    generic = rows["(rand,head,pushpull)"].final_cycle_mean_degree
    assert generic < 0.95 * baseline
    assert rows["(rand,rand,pushpull)"].final_cycle_mean_degree == (
        pytest.approx(baseline, rel=0.1)
    )


def test_figure2_growing_overlay_converges():
    result = figure2.run(scale=SCALE, seed=0)
    series = {s.label: s for s in result.series}
    pushpull = series["(rand,rand,pushpull)"]
    push = series["(rand,rand,push)"]
    # pushpull approaches the baseline degree; push stays visibly below.
    baseline_degree = result.baseline["average_degree"]
    assert pushpull.average_degree[-1] > 0.85 * baseline_degree
    assert push.average_degree[-1] < pushpull.average_degree[-1]
    # Every protocol ends within 2x of the random path length.
    for s in result.series:
        assert (
            s.average_path_length[-1]
            < 2.0 * result.baseline["average_path_length"]
        ), s.label


def test_figure3_lattice_and_random_starts_self_organize():
    result = figure3.run(scale=SCALE, seed=0)

    def series(scenario, label):
        return next(s for s in result.series[scenario] if s.label == label)

    lattice = series("lattice", "(rand,head,pushpull)")
    assert lattice.average_path_length[0] > 4 * lattice.average_path_length[-1]
    for label in ("(rand,head,pushpull)", "(rand,rand,pushpull)"):
        from_lattice = series("lattice", label).clustering[-1]
        from_random = series("random", label).clustering[-1]
        assert from_lattice == pytest.approx(from_random, rel=0.4), label
    for scenario in ("lattice", "random"):
        for s in result.series[scenario]:
            assert s.clustering[-1] > result.baseline["clustering"], (
                scenario,
                s.label,
            )


def test_figure4_rand_view_selection_grows_a_heavy_tail():
    result = figure4.run(scale=SCALE, seed=0)
    finals = {label: shots[-1] for label, shots in result.snapshots.items()}
    for propagation in ("push", "pushpull"):
        head = finals[f"(rand,head,{propagation})"]
        rand = finals[f"(rand,rand,{propagation})"]
        assert rand.std > 1.5 * head.std, propagation
        assert rand.maximum > head.maximum, propagation
        assert rand.tail_weight >= head.tail_weight, propagation
    # Head distributions reach their final shape within a few cycles.
    head_series = result.snapshots["(rand,head,pushpull)"]
    assert head_series[1].std < 2.5 * head_series[-1].std


def test_figure5_head_degrees_are_practically_random():
    result = figure5.run(scale=SCALE, seed=0)
    outside = result.fraction_outside
    assert outside["(rand,head,pushpull)"] < 0.25
    assert outside["(rand,rand,push)"] > outside["(rand,head,pushpull)"]
    assert outside["(rand,rand,pushpull)"] > outside["(rand,head,pushpull)"]
    # Lag-1 autocorrelation of rand view selection far outside the band.
    assert result.curves["(rand,rand,push)"][1] > 2 * result.band


def test_figure6_giant_cluster_survives_removal():
    result = figure6.run(scale=SCALE, seed=0)
    survivors_at_90 = SCALE.n_nodes * 0.1
    # c=12 sits near the percolation threshold at 90% removal, so up to
    # 80% of the survivors may be stranded (c=30 would allow 50%).
    stranded_cap = 0.8
    for label, series in result.outside.items():
        assert series[0] < 0.02 * SCALE.n_nodes, label  # intact at 65%
        assert max(series[-1], series[-2]) >= series[0], label
        assert series[-2] < stranded_cap * survivors_at_90, label
    for label, fraction in result.first_partition_fraction.items():
        assert fraction is None or fraction >= 0.65, label


def test_figure7_self_healing_ordering():
    series = {s.label: s for s in figure7.run(scale=SCALE, seed=0).series}
    for label in ("(rand,head,pushpull)", "(tail,head,pushpull)"):
        assert series[label].half_life is not None
        assert series[label].half_life <= 6, label
        assert series[label].residual_fraction < 0.10, label
    head_push = series["(rand,head,push)"]
    assert head_push.half_life >= series["(rand,head,pushpull)"].half_life
    assert head_push.residual_fraction < 0.10
    assert series["(tail,head,push)"].half_life >= head_push.half_life
    for label in ("(rand,rand,push)", "(rand,rand,pushpull)"):
        assert series[label].residual_fraction > 0.30, label
    # (tail,rand,push): the dead links do not shrink.
    assert series["(tail,rand,push)"].residual_fraction > 0.85
