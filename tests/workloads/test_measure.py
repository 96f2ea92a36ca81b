"""The measurement vocabulary: when each entry reads, what it records,
and how many snapshots one run builds."""

import dataclasses
import json
import random

import pytest

from repro.core.config import ProtocolConfig
from repro.experiments.common import SCALES
from repro.graph.metrics import topology_metrics
from repro.graph.snapshot import GraphSnapshot
from repro.workloads import (
    MEASUREMENTS,
    AdversarySpec,
    CatastrophicFailure,
    ScenarioSpec,
    measure,
    prepare_run,
)
from repro.workloads.measure import AT_END, read_now

CONFIG = ProtocolConfig.from_label("(rand,head,pushpull)", 5)


def scale(**fields):
    defaults = dict(
        name="tiny",
        n_nodes=30,
        view_size=5,
        cycles=4,
        metrics_every=1,
        clustering_sample=None,
        path_sources=None,
        traced_nodes=3,
    )
    defaults.update(fields)
    return dataclasses.replace(SCALES["quick"], **defaults)


def prepare(preset, *events, engine="cycle", seed=0):
    spec = ScenarioSpec(name="measure", bootstrap="random", events=events)
    return prepare_run(spec, CONFIG, scale=preset, seed=seed, engine=engine)


def run(names, preset, *events, engine="cycle"):
    runtime = prepare(preset, *events, engine=engine)
    extract = measure(runtime, names, preset)
    runtime.run_to_end()
    return extract()


@pytest.fixture
def snapshots(monkeypatch):
    """Counts every GraphSnapshot built from edge arrays."""
    built = []
    original = GraphSnapshot.from_edge_arrays.__func__

    def counting(cls, *args):
        built.append(1)
        return original(cls, *args)

    monkeypatch.setattr(
        GraphSnapshot, "from_edge_arrays", classmethod(counting)
    )
    return built


def test_every_entry_declares_when_it_reads():
    for name, entry in MEASUREMENTS.items():
        assert entry.description, name
        assert (entry.layout is None) == (entry.when == AT_END), name


class TestMetrics:
    def test_records_every_cycle_and_reads_cycle_zero_now(self):
        preset = scale(cycles=3)
        runtime = prepare(preset)
        initial = read_now(runtime, "metrics", preset)
        extract = measure(runtime, ("metrics",), preset)
        runtime.run_to_end()
        metrics = extract()["metrics"]
        assert initial["cycles"] == [0]
        assert metrics["cycles"] == [1, 2, 3]
        assert list(metrics) == [
            "cycles",
            "clustering",
            "average_degree",
            "average_path_length",
        ]
        assert all(len(values) == 3 for values in metrics.values())

    def test_metrics_every_thins_recording(self):
        preset = scale(n_nodes=20, cycles=6, metrics_every=2)
        assert run(("metrics",), preset)["metrics"]["cycles"] == [2, 4, 6]

    def test_metrics_are_plausible(self):
        metrics = run(("metrics",), scale(n_nodes=50, cycles=2))["metrics"]
        assert 5 <= metrics["average_degree"][-1] <= 10
        assert 0 <= metrics["clustering"][-1] <= 1
        assert metrics["average_path_length"][-1] > 1

    def test_row_is_the_topology_triple_drawn_from_the_engine_rng(self):
        preset = scale(n_nodes=40, clustering_sample=10, path_sources=5)
        runtime = prepare(preset)
        engine = runtime.engine
        rng = random.Random()
        rng.setstate(engine.rng.getstate())
        expected = topology_metrics(
            GraphSnapshot.from_engine(engine),
            clustering_sample=10,
            path_sources=5,
            rng=rng,
        )
        row = read_now(runtime, "metrics", preset)
        assert row == {
            "cycles": [0],
            "clustering": [expected["clustering"]],
            "average_degree": [expected["average_degree"]],
            "average_path_length": [expected["average_path_length"]],
        }
        assert engine.rng.getstate() == rng.getstate()


class TestDegreeTrace:
    def test_traces_the_first_bootstrap_nodes(self):
        trace = run(("degree-trace",), scale())["degree-trace"]
        assert trace["cycles"] == [1, 2, 3, 4]
        assert len(trace["series"]) == 3
        assert all(len(row) == 4 for row in trace["series"])
        assert all(d >= 0 for row in trace["series"] for d in row)

    def test_crashed_traced_nodes_read_minus_one(self):
        preset = scale(n_nodes=20, cycles=2, traced_nodes=2)
        runtime = prepare(preset)
        extract = measure(runtime, ("degree-trace",), preset)
        runtime.run_to_cycle(1)
        runtime.engine.remove_node(runtime.bootstrap_addresses[0])
        runtime.run_to_end()
        series = extract()["degree-trace"]["series"]
        assert series[0][-1] == -1
        assert series[1][-1] >= 0


class TestDeadLinks:
    def test_dead_links_appear_after_a_failure(self):
        failure = CatastrophicFailure(at_cycle=2, fraction=0.5)
        results = run(
            ("dead-links", "dead-links-healing", "dead-links-initial"),
            scale(n_nodes=40),
            failure,
        )
        census = results["dead-links"]
        assert census["cycles"] == [1, 2, 3, 4]
        assert census["dead_links"][:2] == [0, 0]
        assert census["dead_links"][2] > 0
        # The healing window is the census after the crash cycle.
        assert results["dead-links-healing"] == {
            "cycles": [3, 4],
            "dead_links": census["dead_links"][2:],
        }
        assert results["dead-links-initial"] >= census["dead_links"][2]


class TestViewSizes:
    def test_records_fill_levels(self):
        sizes = run(("view-sizes",), scale(n_nodes=20, cycles=2))
        sizes = sizes["view-sizes"]
        assert sizes["cycles"] == [1, 2]
        assert sizes["min"][-1] <= sizes["mean"][-1] <= sizes["max"][-1]
        assert sizes["max"][-1] <= 5

    def test_metrics_every_thins_recording(self):
        preset = scale(n_nodes=20, metrics_every=2)
        assert run(("view-sizes",), preset)["view-sizes"]["cycles"] == [2, 4]


class TestOneInstant:
    NAMES = ("metrics", "degree-trace", "components", "degrees")

    def test_entries_of_one_cycle_share_its_snapshot(self, snapshots):
        results = run(self.NAMES, scale(cycles=3))
        # One per cycle; the final overlay's entries reuse cycle 3's.
        assert len(snapshots) == 3
        assert results["components"] == [30]

    def test_end_entries_alone_build_one_snapshot(self, snapshots):
        run(("components", "degrees"), scale(cycles=3))
        assert len(snapshots) == 1

    def test_event_family_end_entries_take_a_fresh_instant(self, snapshots):
        # The event engines call before_cycle right after each boundary's
        # after_cycle, so the last cycle's instant is never reused there.
        run(self.NAMES, scale(cycles=3), engine="fast-event")
        assert len(snapshots) == 4

    def test_readings_match_separate_snapshots(self):
        # (Not "metrics": its RNG draws change the run that follows.)
        names = ("degree-trace", "components", "degrees")
        preset = scale(cycles=3)
        shared = run(names, preset)
        assert shared == {name: run((name,), preset)[name] for name in names}


class TestEveryEntry:
    """Each entry of the vocabulary, over a run that gives every one of
    them something to read: an eclipse adversary and a crash."""

    PRESET = scale(
        n_nodes=40,
        view_size=6,
        cycles=6,
        metrics_every=2,
        clustering_sample=15,
        path_sources=6,
    )
    SPEC = ScenarioSpec(
        name="every-entry",
        bootstrap="random",
        events=(CatastrophicFailure(at_cycle=3, fraction=0.3),),
        adversary=AdversarySpec(
            kind="eclipse", fraction=0.1, victims=(0, 1, 2), start_cycle=1
        ),
    )

    def results(self, names, engine="cycle"):
        runtime = prepare_run(
            self.SPEC,
            ProtocolConfig.from_label("(rand,head,pushpull)", 6),
            scale=self.PRESET,
            seed=4,
            engine=engine,
        )
        extract = measure(runtime, names, self.PRESET)
        runtime.run_to_end()
        return extract()

    @pytest.mark.parametrize("name", sorted(MEASUREMENTS))
    @pytest.mark.parametrize(
        "reference, engine",
        [("cycle", "fast"), ("event", "fast-event")],
        ids=["cycle-family", "event-family"],
    )
    def test_reads_alike_on_both_engines_of_a_family(
        self, name, reference, engine
    ):
        expected = self.results((name,), reference)
        assert self.results((name,), engine) == expected

    @pytest.mark.parametrize("name", sorted(MEASUREMENTS))
    def test_result_survives_a_json_round_trip(self, name):
        # Plan records carry the results as JSON.
        result = self.results((name,))[name]
        assert json.loads(json.dumps(result)) == result

    @pytest.mark.parametrize("name", sorted(MEASUREMENTS))
    def test_reads_alike_alone_and_first_among_the_others(self, name):
        # Readings never mutate the overlay, and "metrics" is the only
        # per-cycle entry that draws from the engine RNG; without it
        # among the others, an entry named first reads the run it would
        # read alone, from the instants the others share.
        others = tuple(
            other for other in MEASUREMENTS if other not in (name, "metrics")
        )
        shared = self.results((name,) + others)
        assert shared[name] == self.results((name,))[name]
