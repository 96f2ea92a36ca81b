"""Unit tests for shared experiment infrastructure."""

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.common import (
    ENGINES,
    SCALES,
    Scale,
    autocorrelation_protocols,
    current_scale,
    engine_class,
    growing_plot_protocols,
    make_engine,
    push_protocols,
    studied_protocols,
)
from repro.net.engine import LiveEngine
from repro.simulation.engine import CycleEngine
from repro.simulation.event_engine import EventEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.workloads import Grow, named_scenario, prepare_run
from repro.workloads.runtime import _resolve_growth


def growth_rate(scale):
    """Joins per cycle the growing scenario runs at on ``scale``."""
    return _resolve_growth(Grow(), scale.n_nodes, scale).nodes_per_cycle


def converged(config, scale, seed, engine=None):
    """The random-convergence scenario, run to its end."""
    runtime = prepare_run(
        named_scenario("random-convergence", scale),
        config, scale=scale, seed=seed, engine=engine,
    )
    return runtime.run_to_end()


class TestScales:
    def test_three_presets_exist(self):
        assert set(SCALES) == {"quick", "default", "full"}

    def test_full_matches_paper_parameters(self):
        full = SCALES["full"]
        assert full.n_nodes == 10_000
        assert full.view_size == 30
        assert full.cycles == 300
        assert full.runs == 100
        assert full.traced_nodes == 50
        assert growth_rate(full) == 100

    def test_growth_rate_overflows_view_size(self):
        # The paper's critical proportion: join rate > view size, so the
        # contact node's view overflows during growth (see Table 1).
        for scale in SCALES.values():
            assert growth_rate(scale) > scale.view_size

    def test_current_scale_explicit_name(self):
        assert current_scale("full").name == "full"

    def test_current_scale_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "default")
        assert current_scale().name == "default"

    def test_current_scale_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "quick"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            current_scale("gigantic")


class TestProtocolSets:
    def test_studied_protocols(self):
        protocols = studied_protocols(10)
        assert len(protocols) == 8
        assert all(p.view_size == 10 for p in protocols)

    def test_push_protocols_match_table1_rows(self):
        labels = [p.label for p in push_protocols(10)]
        assert labels == [
            "(rand,head,push)",
            "(rand,rand,push)",
            "(tail,head,push)",
            "(tail,rand,push)",
        ]

    def test_growing_plot_protocols_exclude_unstable(self):
        labels = {p.label for p in growing_plot_protocols(10)}
        assert len(labels) == 6
        assert "(rand,head,push)" not in labels
        assert "(tail,head,push)" not in labels

    def test_autocorrelation_protocols_are_rand_peer_selection(self):
        protocols = autocorrelation_protocols(10)
        assert len(protocols) == 4
        assert all(p.peer_selection.value == "rand" for p in protocols)


class TestConvergedEngine:
    def test_runs_requested_cycles(self):
        scale = Scale(
            name="test",
            n_nodes=40,
            view_size=6,
            cycles=5,
            growth_cycles=2,
            runs=1,
            traced_nodes=3,
            removal_repeats=1,
            metrics_every=1,
            clustering_sample=None,
            path_sources=None,
        )
        from repro.core.config import newscast

        engine = converged(newscast(6), scale, seed=0)
        assert engine.cycle == 5
        assert len(engine) == 40


class TestEngineSelection:
    def test_registry_contents(self):
        from repro.simulation.sharded import ShardedCycleEngine

        assert ENGINES == {
            "cycle": CycleEngine,
            "fast": FastCycleEngine,
            "live": LiveEngine,
            "event": EventEngine,
            "fast-event": FastEventEngine,
            "fast-sharded": ShardedCycleEngine,
        }

    def test_default_is_cycle(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert engine_class() is CycleEngine

    def test_explicit_name(self):
        assert engine_class("fast") is FastCycleEngine

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        assert engine_class() is FastCycleEngine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            engine_class("warp")

    def test_scale_default_engine(self, monkeypatch):
        # The heavy `full` preset runs the array-backed engine out of the
        # box; the scaled-down presets keep the reference engine.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert SCALES["full"].default_engine == "fast"
        assert SCALES["quick"].default_engine == "cycle"
        assert SCALES["default"].default_engine == "cycle"
        assert engine_class(default="fast") is FastCycleEngine
        assert engine_class(default=None) is CycleEngine

    def test_explicit_name_beats_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert engine_class("cycle", default="fast") is CycleEngine

    def test_env_var_beats_scale_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "cycle")
        assert engine_class(default="fast") is CycleEngine

    def test_make_engine_honors_scale_default(self, monkeypatch):
        from repro.core.config import newscast

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        engine = make_engine(newscast(6), seed=1, scale=SCALES["full"])
        assert isinstance(engine, FastCycleEngine)

    def test_make_engine_builds_selected_class(self):
        from repro.core.config import newscast

        engine = make_engine(newscast(6), seed=1, engine="fast")
        assert isinstance(engine, FastCycleEngine)

    def test_engines_reproduce_identical_overlays(self):
        # The selling point of the registry: switching engine names does
        # not change any experiment outcome for a given seed.
        from repro.core.config import newscast
        from repro.simulation.scenarios import random_bootstrap

        views = []
        for name in ("cycle", "fast"):
            engine = make_engine(newscast(6), seed=9, engine=name)
            random_bootstrap(engine, 40)
            engine.run(15)
            views.append(
                {
                    a: tuple((d.address, d.hop_count) for d in v)
                    for a, v in engine.views().items()
                }
            )
        assert views[0] == views[1]

    def test_converged_engine_accepts_engine_name(self):
        from repro.core.config import newscast

        scale = Scale(
            name="test",
            n_nodes=30,
            view_size=6,
            cycles=3,
            growth_cycles=2,
            runs=1,
            traced_nodes=3,
            removal_repeats=1,
            metrics_every=1,
            clustering_sample=None,
            path_sources=None,
        )
        engine = converged(newscast(6), scale, seed=0, engine="fast")
        assert isinstance(engine, FastCycleEngine)
        assert engine.cycle == 3

    def test_event_engines_reproduce_identical_overlays(self):
        # The event-family counterpart of the registry guarantee.
        from repro.core.config import newscast
        from repro.simulation.scenarios import random_bootstrap

        views = []
        for name in ("event", "fast-event"):
            engine = make_engine(
                newscast(6), seed=9, engine=name, latency=0.1, loss=0.05
            )
            random_bootstrap(engine, 40)
            engine.run(10)
            views.append(
                {
                    a: tuple((d.address, d.hop_count) for d in v)
                    for a, v in engine.views().items()
                }
            )
        assert views[0] == views[1]


class TestLatencyLossKnobs:
    def test_latency_and_loss_forwarded_to_event_engines(self):
        from repro.core.config import newscast

        engine = make_engine(
            newscast(6), seed=1, engine="fast-event", latency=0.25, loss=0.1
        )
        assert isinstance(engine, FastEventEngine)
        assert engine.latency.delay == pytest.approx(0.25)
        assert engine.loss.probability == pytest.approx(0.1)

    def test_env_var_fallbacks(self, monkeypatch):
        from repro.core.config import newscast

        monkeypatch.setenv("REPRO_LATENCY", "0.3")
        monkeypatch.setenv("REPRO_LOSS", "0.05")
        engine = make_engine(newscast(6), seed=1, engine="event")
        assert engine.latency.delay == pytest.approx(0.3)
        assert engine.loss.probability == pytest.approx(0.05)

    def test_rejected_for_cycle_engines(self):
        from repro.core.config import newscast

        with pytest.raises(ConfigurationError) as error:
            make_engine(newscast(6), seed=1, engine="fast", latency=0.1)
        assert "needs 'latency'" in str(error.value)
        assert "event, fast-event" in str(error.value)

    def test_env_var_rejected_for_cycle_engines(self, monkeypatch):
        from repro.core.config import newscast

        monkeypatch.setenv("REPRO_LOSS", "0.05")
        with pytest.raises(ConfigurationError):
            make_engine(newscast(6), seed=1, engine="cycle")

    def test_malformed_env_var_rejected(self, monkeypatch):
        from repro.core.config import newscast

        monkeypatch.setenv("REPRO_LATENCY", "soon")
        with pytest.raises(ConfigurationError) as error:
            make_engine(newscast(6), seed=1, engine="event")
        assert "REPRO_LATENCY" in str(error.value)

    def test_model_instances_accepted(self):
        # Ready-made models pass straight through instead of crashing
        # inside the constant-latency wrapper.
        from repro.core.config import newscast
        from repro.simulation.network import NoLoss, UniformLatency

        engine = make_engine(
            newscast(6),
            seed=1,
            engine="event",
            latency=UniformLatency(0.1, 0.2),
            loss=NoLoss(),
        )
        assert isinstance(engine.latency, UniformLatency)
        assert isinstance(engine.loss, NoLoss)

    def test_non_numeric_knob_rejected_cleanly(self):
        from repro.core.config import newscast

        with pytest.raises(ConfigurationError) as error:
            make_engine(newscast(6), seed=1, engine="event", latency="fast")
        assert "latency" in str(error.value)

    def test_unknown_engine_error_lists_full_registry(self):
        from repro.experiments.common import resolve_engine_name

        with pytest.raises(ConfigurationError) as error:
            resolve_engine_name("warp")
        for name in ENGINES:
            assert name in str(error.value)
