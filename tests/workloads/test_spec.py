"""ScenarioSpec: construction validation and JSON round-tripping."""

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.spec import (
    BOOTSTRAP_KINDS,
    EVENT_KINDS,
    CatastrophicFailure,
    ChurnTrace,
    ContinuousChurn,
    Grow,
    Heal,
    Partition,
    ScenarioEvent,
    ScenarioSpec,
)


def full_spec() -> ScenarioSpec:
    """A spec exercising every event kind and optional field."""
    return ScenarioSpec(
        name="everything",
        bootstrap="random",
        cycles=40,
        view_fill=5,
        latency=0.1,
        loss=0.01,
        description="all event kinds at once",
        events=(
            CatastrophicFailure(at_cycle=10, fraction=0.5),
            ContinuousChurn(joins_per_cycle=2, leaves_per_cycle=2),
            ChurnTrace(
                rate=1.0,
                session_length=5.0,
                start_cycle=2,
                end_cycle=30,
                trace_seed=7,
            ),
            Partition(at_cycle=15, n_groups=3),
            Heal(at_cycle=20),
        ),
    )


class TestValidation:
    def test_unknown_bootstrap_rejected(self):
        with pytest.raises(ConfigurationError, match="bootstrap"):
            ScenarioSpec(bootstrap="mesh")

    def test_bootstrap_kinds_all_accepted(self):
        for kind in BOOTSTRAP_KINDS:
            events = (Grow(),) if kind == "empty" else ()
            assert ScenarioSpec(bootstrap=kind, events=events).bootstrap == kind

    def test_empty_bootstrap_requires_grow(self):
        with pytest.raises(ConfigurationError, match="grow"):
            ScenarioSpec(bootstrap="empty")

    @pytest.mark.parametrize("kind", ["random", "lattice"])
    def test_grow_requires_empty_bootstrap(self, kind):
        # Growing beside a populated bootstrap would build a second,
        # disjoint overlay (two components), so the spec refuses it.
        with pytest.raises(ConfigurationError, match="'empty' bootstrap"):
            ScenarioSpec(
                bootstrap=kind, events=(Grow(target=60, per_cycle=5),)
            )
        with pytest.raises(ConfigurationError, match="'empty' bootstrap"):
            ScenarioSpec.from_dict(
                {"bootstrap": kind, "events": [{"kind": "grow"}]}
            )

    def test_fraction_out_of_range(self):
        with pytest.raises(ConfigurationError, match="fraction"):
            CatastrophicFailure(at_cycle=1, fraction=1.5)
        with pytest.raises(ConfigurationError, match="fraction"):
            CatastrophicFailure(at_cycle=1, fraction=-0.1)

    def test_negative_cycle_rejected(self):
        with pytest.raises(ConfigurationError, match="at_cycle"):
            CatastrophicFailure(at_cycle=-1, fraction=0.5)

    def test_nan_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ChurnTrace(rate=float("nan"))

    def test_zero_session_rejected(self):
        with pytest.raises(ConfigurationError, match="session_length"):
            ChurnTrace(rate=1.0, session_length=0.0)

    def test_trace_end_before_start_rejected(self):
        with pytest.raises(ConfigurationError, match="end_cycle"):
            ChurnTrace(rate=1.0, start_cycle=10, end_cycle=5)

    def test_idle_continuous_churn_rejected(self):
        with pytest.raises(ConfigurationError, match="continuous-churn"):
            ContinuousChurn(joins_per_cycle=0, leaves_per_cycle=0)

    def test_partition_needs_heal(self):
        with pytest.raises(ConfigurationError, match="never healed"):
            ScenarioSpec(events=(Partition(at_cycle=5),))

    def test_heal_needs_partition(self):
        with pytest.raises(ConfigurationError, match="no preceding"):
            ScenarioSpec(events=(Heal(at_cycle=5),))

    def test_heal_must_follow_partition(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                events=(Partition(at_cycle=5), Heal(at_cycle=5))
            )

    def test_overlapping_partitions_rejected(self):
        with pytest.raises(ConfigurationError, match="overlaps"):
            ScenarioSpec(
                events=(
                    Partition(at_cycle=2),
                    Partition(at_cycle=4),
                    Heal(at_cycle=6),
                    Heal(at_cycle=8),
                )
            )

    def test_sequential_partitions_accepted(self):
        spec = ScenarioSpec(
            events=(
                Partition(at_cycle=2),
                Heal(at_cycle=4),
                Partition(at_cycle=6),
                Heal(at_cycle=8),
            )
        )
        assert len(spec.events) == 4

    def test_loss_probability_range(self):
        with pytest.raises(ConfigurationError, match="loss"):
            ScenarioSpec(loss=1.2)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="latency"):
            ScenarioSpec(latency=-0.5)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigurationError):
            CatastrophicFailure(at_cycle=True, fraction=0.5)


class TestJsonRoundTrip:
    def test_full_round_trip(self):
        spec = full_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_minimal_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_every_event_kind_round_trips(self):
        samples = {
            "grow": Grow(target=100, per_cycle=4),
            "catastrophic-failure": CatastrophicFailure(
                at_cycle=3, fraction=0.25
            ),
            "continuous-churn": ContinuousChurn(
                joins_per_cycle=1, leaves_per_cycle=2
            ),
            "churn-trace": ChurnTrace(
                rate=0.5, session_length=4.0, trace_seed=1
            ),
            "partition": Partition(at_cycle=2, n_groups=4),
            "heal": Heal(at_cycle=9),
        }
        assert set(samples) == set(EVENT_KINDS)
        for kind, event in samples.items():
            restored = ScenarioEvent.from_dict(event.to_dict())
            assert restored == event, kind

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown event kind"):
            ScenarioSpec.from_dict(
                {"name": "x", "events": [{"kind": "meteor-strike"}]}
            )

    def test_unknown_event_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown field"):
            ScenarioEvent.from_dict({"kind": "grow", "speed": 3})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            ScenarioSpec.from_dict({"name": "x", "colour": "blue"})

    def test_out_of_range_parameter_rejected_from_json(self):
        document = """
        {"name": "bad", "events":
         [{"kind": "catastrophic-failure", "at_cycle": 5, "fraction": 2.0}]}
        """
        with pytest.raises(ConfigurationError, match="fraction"):
            ScenarioSpec.from_json(document)

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json("[1, 2]")

    def test_replace_revalidates(self):
        spec = ScenarioSpec()
        with pytest.raises(ConfigurationError):
            spec.replace(bootstrap="mesh")
