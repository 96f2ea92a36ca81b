"""Integration tests asserting the paper's qualitative claims.

Each test reproduces, at a reduced but sufficient scale, one claim from
the paper's evaluation or discussion sections.  These are the tests that
justify calling this repository a *reproduction*.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core.config import ProtocolConfig, lpbcast, newscast
from repro.experiments.common import SCALES
from repro.graph.components import (
    component_sizes,
    is_connected,
    nodes_outside_largest,
)
from repro.graph.metrics import (
    average_degree,
    average_path_length,
    clustering_coefficient,
)
from repro.graph.snapshot import GraphSnapshot
from repro.simulation.churn import massive_failure
from repro.simulation.engine import CycleEngine
from repro.simulation.scenarios import (
    lattice_bootstrap,
    random_bootstrap,
    start_growing,
)
from repro.simulation.trace import Observer
from repro.stats.autocorrelation import autocorrelation, confidence_band
from repro.workloads import ScenarioSpec, measure, prepare_run

N, C = 600, 15
CONVERGE = 50


def traced_run(config, n, cycles, traced, **run):
    """A random-bootstrap run of ``n`` nodes recording the degree trace
    of its first ``traced`` nodes: ``(runtime, extract)``."""
    scale = dataclasses.replace(SCALES["quick"], traced_nodes=traced)
    spec = ScenarioSpec(
        name="traced",
        bootstrap="random",
        latency=run.pop("latency", None),
        loss=run.pop("loss", None),
    )
    runtime = prepare_run(
        spec, config, scale=scale, n_nodes=n, cycles=cycles, **run
    )
    return runtime, measure(runtime, ("degree-trace",), scale)


def converged(label, seed=0, n=N, c=C, cycles=CONVERGE):
    engine = CycleEngine(ProtocolConfig.from_label(label, c), seed=seed)
    random_bootstrap(engine, n)
    engine.run(cycles)
    return engine


class TestExcludedDimensions:
    """Paper Section 4.3: the three discarded design choices."""

    def test_pull_only_converges_to_star_like_topology(self):
        # "(*,*,pull) converges to a star topology": the maximum degree
        # explodes far beyond anything a pushpull overlay produces.
        engine = converged("(rand,head,pull)", cycles=40, n=300)
        degrees = GraphSnapshot.from_engine(engine).degrees()
        pushpull = converged("(rand,head,pushpull)", cycles=40, n=300)
        pushpull_degrees = GraphSnapshot.from_engine(pushpull).degrees()
        assert degrees.max() > 4 * pushpull_degrees.max()
        assert degrees.max() > 300 * 0.3  # a hub adjacent to much of the net

    def _joiner_in_degrees(self, label, seed=1):
        engine = CycleEngine(ProtocolConfig.from_label(label, 8), seed=seed)
        random_bootstrap(engine, 100)
        engine.run(10)
        joiners = {
            engine.add_node(contacts=[engine.addresses()[0]])
            for _ in range(20)
        }
        engine.run(20)
        in_degrees = {j: 0 for j in joiners}
        for address, view in engine.views().items():
            if address in joiners:
                continue
            for descriptor in view:
                if descriptor.address in in_degrees:
                    in_degrees[descriptor.address] += 1
        return list(in_degrees.values())

    def test_tail_view_selection_cannot_handle_joins(self):
        # "(*,tail,*) cannot handle dynamism (joining nodes) at all": tail
        # view selection keeps only the oldest descriptors, so a joiner's
        # fresh descriptor is always truncated -- nobody ever learns about
        # joiners (zero in-links), while under head selection joiners are
        # integrated within a few cycles.
        tail_in = self._joiner_in_degrees("(rand,tail,pushpull)")
        head_in = self._joiner_in_degrees("(rand,head,pushpull)")
        assert max(tail_in) == 0
        assert np.mean(head_in) > 2

    def test_head_peer_selection_causes_severe_clustering(self):
        # "(head,*,*) results in severe clustering": always gossiping with
        # the freshest entry (the most recent partner) destroys mixing;
        # in the growing scenario the overlay ends up far more clustered
        # than with rand peer selection.
        def growing_cc(label, seed=2):
            engine = CycleEngine(
                ProtocolConfig.from_label(label, 12), seed=seed
            )
            start_growing(engine, 400, nodes_per_cycle=40)
            engine.run(60)
            return clustering_coefficient(GraphSnapshot.from_engine(engine))

        head_cc = growing_cc("(head,head,pushpull)")
        rand_cc = growing_cc("(rand,head,pushpull)")
        assert head_cc > 1.3 * rand_cc
        assert head_cc > 0.65  # approaching clique-like neighbourhoods


class TestConvergence:
    """Paper Section 5: self-organization from extreme starting points."""

    def test_lattice_and_random_starts_converge_to_same_clustering(self):
        results = {}
        for scenario in ("lattice", "random"):
            engine = CycleEngine(newscast(view_size=C), seed=3)
            if scenario == "lattice":
                lattice_bootstrap(engine, N)
            else:
                random_bootstrap(engine, N)
            engine.run(CONVERGE)
            results[scenario] = clustering_coefficient(
                GraphSnapshot.from_engine(engine)
            )
        assert results["lattice"] == pytest.approx(results["random"], rel=0.25)

    def test_lattice_path_length_collapses(self):
        engine = CycleEngine(newscast(view_size=C), seed=4)
        lattice_bootstrap(engine, N)
        initial = average_path_length(GraphSnapshot.from_engine(engine))
        engine.run(15)
        final = average_path_length(GraphSnapshot.from_engine(engine))
        assert initial > 5 * final  # from O(n/c) to O(log n) in a few cycles

    def test_growing_pushpull_converges_and_stays_connected(self):
        engine = CycleEngine(newscast(view_size=C), seed=5)
        start_growing(engine, N, nodes_per_cycle=50)
        engine.run(CONVERGE)
        snapshot = GraphSnapshot.from_engine(engine)
        assert is_connected(snapshot)

    def test_all_studied_protocols_connected_from_random_start(self):
        # Section 5: "every protocol under examination creates a connected
        # overlay network in 100% of the runs" (random bootstrap).
        for config_label in (
            "(rand,head,push)",
            "(rand,head,pushpull)",
            "(rand,rand,push)",
            "(rand,rand,pushpull)",
            "(tail,head,push)",
            "(tail,head,pushpull)",
            "(tail,rand,push)",
            "(tail,rand,pushpull)",
        ):
            engine = converged(config_label, seed=6, n=300, cycles=30)
            assert is_connected(GraphSnapshot.from_engine(engine)), config_label


class TestSmallWorldness:
    """Paper Section 8 'Randomness': overlays are small worlds, not random."""

    def test_clustering_exceeds_random_baseline_for_all_protocols(self):
        from repro.baselines.random_topology import random_baseline_metrics

        baseline = random_baseline_metrics(
            N, C, clustering_sample=None, path_sources=50
        )
        for label in ("(rand,head,pushpull)", "(rand,rand,push)"):
            engine = converged(label, seed=7)
            cc = clustering_coefficient(GraphSnapshot.from_engine(engine))
            assert cc > 1.3 * baseline["clustering"], label

    def test_path_length_stays_near_random_baseline(self):
        from repro.baselines.random_topology import random_baseline_metrics

        baseline = random_baseline_metrics(
            N, C, clustering_sample=None, path_sources=50
        )
        engine = converged("(rand,head,pushpull)", seed=8)
        apl = average_path_length(
            GraphSnapshot.from_engine(engine), n_sources=50,
            rng=random.Random(0),
        )
        assert apl < 1.4 * baseline["average_path_length"]

    def test_rand_view_selection_closest_to_random_metrics(self):
        # "(*,rand,pushpull) give us the closest approximation of the
        # random topology" for clustering.
        rand_vs = converged("(rand,rand,pushpull)", seed=9)
        head_vs = converged("(rand,head,pushpull)", seed=9)
        cc_rand = clustering_coefficient(GraphSnapshot.from_engine(rand_vs))
        cc_head = clustering_coefficient(GraphSnapshot.from_engine(head_vs))
        assert cc_rand < cc_head


class TestDegreeDistribution:
    """Paper Section 6: view selection dominates degree balance."""

    def test_head_views_balanced_rand_views_heavy_tailed(self):
        head = converged("(rand,head,pushpull)", seed=10)
        rand = converged("(rand,rand,pushpull)", seed=10)
        head_deg = GraphSnapshot.from_engine(head).degrees()
        rand_deg = GraphSnapshot.from_engine(rand).degrees()
        assert rand_deg.std() > 1.5 * head_deg.std()
        assert rand_deg.max() > head_deg.max()

    def test_head_average_degree_below_random_rand_close_to_it(self):
        from repro.baselines.random_topology import random_baseline_metrics

        baseline = random_baseline_metrics(N, C)["average_degree"]
        head = converged("(rand,head,pushpull)", seed=11)
        rand = converged("(rand,rand,pushpull)", seed=11)
        head_avg = average_degree(GraphSnapshot.from_engine(head))
        rand_avg = average_degree(GraphSnapshot.from_engine(rand))
        assert head_avg < 0.95 * baseline
        assert rand_avg == pytest.approx(baseline, rel=0.08)

    def test_no_long_run_hubs_under_head_selection(self):
        # Table 2: time-averaged degrees concentrate (small sqrt(sigma)).
        runtime, extract = traced_run(
            newscast(view_size=C), N, CONVERGE, 20, seed=12, engine="cycle"
        )
        runtime.run_to_end()
        series = extract()["degree-trace"]["series"]
        time_averages = [np.mean(row) for row in series]
        assert np.std(time_averages, ddof=1) < 0.1 * np.mean(time_averages)


class _ChurnSparingTraced(Observer):
    """Each cycle, ``rate`` untraced nodes crash and as many fresh nodes
    join through live contacts, so the traced degree series stay aligned
    while the membership turns over."""

    def __init__(self, traced, rate):
        self.traced = set(traced)
        self.rate = rate

    def before_cycle(self, engine):
        if engine.cycle == 0:
            return
        candidates = [a for a in engine.addresses() if a not in self.traced]
        for victim in engine.rng.sample(candidates, self.rate):
            engine.remove_node(victim)
        engine.add_nodes(self.rate, contacts=engine.addresses()[:3])


class TestAsynchronousAutocorrelation:
    """Paper Section 6 / Figure 5 on the asynchronous engine: the
    conclusion survives latency, loss and continuous churn."""

    def test_head_decorrelates_degrees_rand_does_not(self):
        n, cycles, traced = 1000, 60, 20
        max_lag = cycles // 3
        band = confidence_band(cycles, level=0.99)
        curves = {}
        for label in ("(rand,head,pushpull)", "(rand,rand,pushpull)"):
            runtime, extract = traced_run(
                ProtocolConfig.from_label(label, 30),
                n,
                cycles,
                traced,
                seed=5,
                engine="fast-event",
                latency=0.1,
                loss=0.01,
            )
            runtime.add_observer(
                _ChurnSparingTraced(
                    runtime.bootstrap_addresses[:traced], n // 100
                )
            )
            runtime.run_to_end()
            series = extract()["degree-trace"]["series"]
            per_node = [autocorrelation(s, max_lag) for s in series]
            curves[label] = np.mean(per_node, axis=0)
        outside = {
            label: float((np.abs(curve[1:]) > band).mean())
            for label, curve in curves.items()
        }
        head, rand = "(rand,head,pushpull)", "(rand,rand,pushpull)"
        assert outside[head] < outside[rand]
        assert curves[rand][1] > 2 * band


class TestGrowingScenarioPartitioning:
    """Paper Table 1: push protocols partition while growing."""

    def test_head_push_partitions_rand_push_rarely(self):
        def partition_fraction(label, runs=5):
            partitioned = 0
            for seed in range(runs):
                engine = CycleEngine(
                    ProtocolConfig.from_label(label, 12), seed=seed
                )
                start_growing(engine, 500, nodes_per_cycle=40)
                engine.run(60)
                sizes = component_sizes(GraphSnapshot.from_engine(engine))
                if len(sizes) > 1:
                    partitioned += 1
            return partitioned / runs

        assert partition_fraction("(rand,head,push)") >= 0.6
        assert partition_fraction("(rand,rand,push)") <= 0.2


class TestRobustness:
    """Paper Section 7 / Figure 6: connectivity under massive removal."""

    def test_no_partitioning_below_seventy_percent_removal(self):
        engine = converged("(rand,head,pushpull)", seed=13)
        snapshot = GraphSnapshot.from_engine(engine)
        rng = random.Random(0)
        for fraction in (0.3, 0.5, 0.65):
            victims = rng.sample(
                snapshot.addresses, int(snapshot.n * fraction)
            )
            assert is_connected(snapshot.remove_nodes(victims)), fraction

    def test_partitioning_leaves_one_giant_cluster(self):
        engine = converged("(rand,rand,pushpull)", seed=14)
        snapshot = GraphSnapshot.from_engine(engine)
        rng = random.Random(1)
        victims = rng.sample(snapshot.addresses, int(snapshot.n * 0.9))
        remaining = snapshot.remove_nodes(victims)
        outside = nodes_outside_largest(remaining)
        assert outside < 0.25 * remaining.n


class TestSelfHealing:
    """Paper Section 7 / Figure 7: head heals exponentially, rand at best
    linearly, and (tail,rand,push) gets worse."""

    def heal_series(self, label, cycles=40, seed=15):
        engine = converged(label, seed=seed)
        massive_failure(engine, 0.5)
        initial = engine.dead_link_count()
        counts = []
        for _ in range(cycles):
            engine.run_cycle()
            counts.append(engine.dead_link_count())
        return initial, counts

    def test_head_selection_heals_fast(self):
        for label in ("(rand,head,pushpull)", "(tail,head,pushpull)"):
            initial, counts = self.heal_series(label)
            assert counts[14] < 0.05 * initial, label

    def test_push_heals_slower_than_pushpull_but_heals(self):
        _, pushpull = self.heal_series("(rand,head,pushpull)")
        initial, push = self.heal_series("(rand,head,push)")
        assert push[4] > pushpull[4]
        assert push[-1] < 0.05 * initial

    def test_rand_selection_barely_heals(self):
        initial, counts = self.heal_series("(rand,rand,push)")
        assert counts[-1] > 0.6 * initial

    def test_tail_rand_push_does_not_heal(self):
        initial, counts = self.heal_series("(tail,rand,push)")
        assert counts[-1] > 0.9 * initial


class TestNamedProtocols:
    """The paper's two concrete instances behave as documented."""

    def test_newscast_and_lpbcast_run_and_converge(self):
        for config in (newscast(view_size=10), lpbcast(view_size=10)):
            engine = CycleEngine(config, seed=16)
            random_bootstrap(engine, 200)
            engine.run(25)
            assert is_connected(GraphSnapshot.from_engine(engine))
