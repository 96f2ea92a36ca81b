"""ExperimentPlan: validation, JSON round-tripping, run_plan execution."""

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads import (
    MEASUREMENTS,
    CatastrophicFailure,
    ExperimentPlan,
    ScenarioSpec,
    plan_cells,
    run_plan,
)


def small_plan(**overrides) -> ExperimentPlan:
    defaults = dict(
        name="small",
        scenario=ScenarioSpec(
            name="heal",
            bootstrap="random",
            cycles=8,
            events=(CatastrophicFailure(at_cycle=5, fraction=0.4),),
        ),
        protocols=("(rand,head,pushpull)",),
        scales=("quick",),
        engines=("fast",),
        seeds=(0,),
        n_nodes=40,
        measurements=("dead-links", "components"),
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestValidation:
    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            small_plan(scenario="black-hole")

    def test_unknown_scale(self):
        with pytest.raises(ConfigurationError, match="unknown scale"):
            small_plan(scales=("galactic",))

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            small_plan(engines=("warpdrive",))

    def test_unknown_measurement(self):
        with pytest.raises(ConfigurationError, match="unknown measurement"):
            small_plan(measurements=("vibes",))

    def test_repeated_measurement_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            small_plan(measurements=("metrics", "dead-links", "metrics"))

    def test_bad_protocol_label(self):
        with pytest.raises(ConfigurationError, match="label"):
            small_plan(protocols=("(rand,psychic,pushpull)",))

    def test_empty_axes_rejected(self):
        for axis in ("protocols", "scales", "engines", "seeds"):
            with pytest.raises(ConfigurationError):
                small_plan(**{axis: ()})

    def test_non_integer_seed(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            small_plan(seeds=("zero",))

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown plan field"):
            ExperimentPlan.from_dict({"name": "x", "budget": 1000})

    def test_total_runs(self):
        plan = small_plan(
            protocols=("(rand,head,pushpull)", "(rand,rand,push)"),
            engines=("cycle", "fast"),
            seeds=(0, 1, 2),
        )
        assert plan.total_runs == 12


class TestJsonRoundTrip:
    def test_inline_scenario_round_trip(self):
        plan = small_plan()
        assert ExperimentPlan.from_json(plan.to_json()) == plan

    def test_named_scenario_round_trip(self):
        plan = small_plan(scenario="catastrophic-failure")
        assert ExperimentPlan.from_json(plan.to_json()) == plan

    def test_default_engine_round_trips_as_null(self):
        plan = small_plan(engines=(None,))
        restored = ExperimentPlan.from_json(plan.to_json())
        assert restored.engines == (None,)

    def test_default_engine_string_accepted(self):
        restored = ExperimentPlan.from_dict(
            {"name": "x", "engines": ["default", "fast"]}
        )
        assert restored.engines == (None, "fast")

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentPlan.from_json("]")

    def test_inline_scale_round_trips(self):
        import dataclasses

        from repro.experiments.common import SCALES

        tiny = dataclasses.replace(SCALES["quick"], name="tiny", n_nodes=50)
        plan = small_plan(scales=(tiny,), n_nodes=None)
        restored = ExperimentPlan.from_json(plan.to_json())
        assert restored.scales == (tiny,)
        assert restored == plan

    def test_inline_scale_with_unknown_field_rejected(self):
        payload = small_plan().to_dict()
        payload["scales"] = [{"name": "tiny", "warp_factor": 9}]
        with pytest.raises(ConfigurationError, match="invalid inline scale"):
            ExperimentPlan.from_dict(payload)

    def test_inline_scale_bad_field_type_rejected_eagerly(self):
        # A hand-written document with n_nodes as a string must die at
        # construction, not mid-study with a TypeError from an engine.
        import dataclasses as dc

        from repro.experiments.common import SCALES

        payload = small_plan().to_dict()
        fields = dc.asdict(SCALES["quick"])
        fields["n_nodes"] = "40"
        payload["scales"] = [fields]
        with pytest.raises(ConfigurationError, match="n_nodes"):
            ExperimentPlan.from_dict(payload)

    def test_inline_scale_unknown_default_engine_rejected_eagerly(self):
        import dataclasses as dc

        from repro.experiments.common import SCALES

        payload = small_plan().to_dict()
        fields = dc.asdict(SCALES["quick"])
        fields["default_engine"] = "warp"
        payload["scales"] = [fields]
        with pytest.raises(ConfigurationError, match="default_engine"):
            ExperimentPlan.from_dict(payload)


class TestRunPlan:
    def test_records_cover_cross_product(self):
        plan = small_plan(
            protocols=("(rand,head,pushpull)", "(rand,rand,pushpull)"),
            seeds=(0, 1),
        )
        result = run_plan(plan)
        assert len(result.records) == plan.total_runs == 4
        labels = {(r.protocol, r.seed) for r in result.records}
        assert len(labels) == 4
        for record in result.records:
            assert record.scenario == "heal"
            assert record.engine == "fast"
            assert record.cycles == 8
            assert record.final_nodes < 40  # the crash fired
            assert len(record.views_digest) == 64
            assert set(record.measurements) == {"dead-links", "components"}
            dead = record.measurements["dead-links"]
            assert len(dead["cycles"]) == 8
            assert max(dead["dead_links"]) > 0

    def test_same_seed_same_digest_across_invocations(self):
        plan = small_plan()
        first = run_plan(plan).records[0]
        second = run_plan(plan).records[0]
        assert first.views_digest == second.views_digest

    def test_json_round_tripped_plan_runs_identically(self):
        plan = small_plan()
        restored = ExperimentPlan.from_json(plan.to_json())
        assert (
            run_plan(plan).records[0].views_digest
            == run_plan(restored).records[0].views_digest
        )

    def test_on_record_streams(self):
        seen = []
        run_plan(small_plan(), on_record=seen.append)
        assert len(seen) == 1

    def test_default_engine_uses_scale_default(self):
        result = run_plan(small_plan(engines=(None,)))
        assert result.records[0].engine == "cycle"  # quick's default

    def test_result_to_json_parses(self):
        import json

        payload = json.loads(run_plan(small_plan()).to_json())
        assert payload["plan"]["name"] == "small"
        assert len(payload["records"]) == 1

    def test_inline_scale_runs_and_names_record(self):
        import dataclasses

        from repro.experiments.common import SCALES

        tiny = dataclasses.replace(
            SCALES["quick"], name="tiny", n_nodes=40, cycles=8
        )
        record = run_plan(small_plan(scales=(tiny,), n_nodes=None)).records[0]
        assert record.scale == "tiny"
        assert record.final_nodes < 40  # the crash fired at the ad-hoc size

    def test_every_measurement_runs(self):
        plan = small_plan(
            scenario="random-convergence",
            measurements=tuple(sorted(MEASUREMENTS)),
            cycles=6,
        )
        record = run_plan(plan).records[0]
        assert set(record.measurements) == set(MEASUREMENTS)
        assert record.measurements["degrees"]["mean"] > 0
        # No failure event in this scenario: the initial-dead-links
        # measurement reports null rather than erroring.
        assert record.measurements["dead-links-initial"] is None

    def test_dead_links_initial_captures_pre_healing_count(self):
        record = run_plan(
            small_plan(measurements=("dead-links", "dead-links-initial"))
        ).records[0]
        initial = record.measurements["dead-links-initial"]
        assert initial is not None and initial > 0
        # Healing only shrinks the census taken after the crash cycle.
        post_crash = record.measurements["dead-links"]["dead_links"][5:]
        assert max(post_crash) <= initial

    def test_dead_links_healing_window_matches_full_census_tail(self):
        # The windowed census records exactly the post-crash suffix of
        # the full one (crash at cycle 5 of 8) -- same numbers, none of
        # the pre-crash scans.
        record = run_plan(
            small_plan(measurements=("dead-links", "dead-links-healing"))
        ).records[0]
        full = record.measurements["dead-links"]
        windowed = record.measurements["dead-links-healing"]
        assert windowed["cycles"] == [6, 7, 8]
        assert windowed["cycles"] == full["cycles"][5:]
        assert windowed["dead_links"] == full["dead_links"][5:]

    def test_dead_links_healing_covers_whole_run_without_failure(self):
        record = run_plan(
            small_plan(
                scenario="random-convergence",
                cycles=4,
                measurements=("dead-links-healing",),
            )
        ).records[0]
        assert record.measurements["dead-links-healing"]["cycles"] == [
            1,
            2,
            3,
            4,
        ]


class TestEngineMetadata:
    # Regression: a cell run via the scale's default engine used to be
    # indistinguishable from an explicit --engine in --out records; the
    # record now carries both the resolved engine and the requested one.

    def test_resolved_engine_recorded_when_defaulted(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        record = run_plan(small_plan(engines=(None,))).records[0]
        assert record.engine == "cycle"  # quick's default, resolved
        assert record.engine_requested is None
        payload = record.to_dict()
        assert payload["engine"] == "cycle"
        assert payload["engine_requested"] is None

    def test_explicit_engine_distinguishable_from_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        explicit = run_plan(small_plan(engines=("cycle",))).records[0]
        defaulted = run_plan(small_plan(engines=(None,))).records[0]
        assert explicit.engine == defaulted.engine == "cycle"
        assert explicit.engine_requested == "cycle"
        assert defaulted.engine_requested is None
        # Metadata only -- the simulation itself is identical.
        assert explicit.views_digest == defaulted.views_digest

    def test_env_supplied_engine_resolved_in_record(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        record = run_plan(small_plan(engines=(None,))).records[0]
        assert record.engine == "fast"
        assert record.engine_requested is None


class TestFeaturesCheckedAtExpansion:
    # Regression: both combinations used to expand cleanly and then fail
    # inside run_plan as a PlanExecutionError, after cells had started.

    def test_validation_protocol_on_sharded_engine(self):
        plan = small_plan(
            protocols=("(rand,head,pushpull);V",), engines=("fast-sharded",)
        )
        with pytest.raises(ConfigurationError, match="'fast-sharded'"):
            plan_cells(plan)

    def test_spec_latency_on_cycle_family_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_LATENCY", raising=False)
        plan = small_plan(
            scenario=ScenarioSpec(
                name="delayed", bootstrap="random", latency=0.1
            ),
            engines=("fast",),
        )
        with pytest.raises(ConfigurationError, match="'latency'"):
            plan_cells(plan)
