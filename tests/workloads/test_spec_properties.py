"""Property-based fuzzing of :class:`ScenarioSpec` (seeded ``random``).

Two properties over hundreds of generated documents:

- every *valid* spec round-trips through JSON to an equal spec (and the
  serialization is a fixed point: serialize -> parse -> serialize is
  byte-stable);
- every *invalid* document -- produced by applying one corruption from a
  catalog to a valid payload -- raises
  :class:`~repro.core.errors.ConfigurationError` eagerly at parse time,
  never a ``TypeError``/``ValueError`` traceback from deep inside an
  engine (``pytest.raises`` with a concrete exception type pins exactly
  that: any other exception type fails the test).

No new dependencies: generation uses the standard library's seeded
``random.Random``, so every failure reproduces from the printed seed.
"""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.spec import BOOTSTRAP_KINDS, ScenarioSpec

N_VALID = 300
N_INVALID = 300


# -- generators --------------------------------------------------------------


def _maybe(rng, value, p=0.5):
    return value if rng.random() < p else None


def _gen_grow(rng):
    return {
        "kind": "grow",
        **({"target": rng.randrange(1, 5000)} if rng.random() < 0.5 else {}),
        **({"per_cycle": rng.randrange(1, 400)} if rng.random() < 0.5 else {}),
    }


def _gen_failure(rng):
    return {
        "kind": "catastrophic-failure",
        "at_cycle": rng.randrange(0, 200),
        "fraction": rng.choice([0.0, 1.0, round(rng.random(), 6)]),
    }


def _gen_churn(rng):
    joins = rng.randrange(0, 50)
    leaves = rng.randrange(0, 50) if joins else rng.randrange(1, 50)
    return {
        "kind": "continuous-churn",
        "joins_per_cycle": joins,
        "leaves_per_cycle": leaves,
    }


def _gen_trace(rng):
    start = rng.randrange(0, 50)
    payload = {
        "kind": "churn-trace",
        "rate": rng.choice([0.0, round(rng.uniform(0.01, 20.0), 6)]),
        "session_length": round(rng.uniform(0.01, 50.0), 6),
        "start_cycle": start,
        "trace_seed": rng.randrange(0, 1 << 30),
    }
    if rng.random() < 0.5:
        payload["end_cycle"] = start + rng.randrange(1, 100)
    return payload


def _gen_partition_pairs(rng):
    """Properly nested, non-overlapping partition/heal interval events."""
    events = []
    cursor = rng.randrange(0, 20)
    for _ in range(rng.randrange(0, 3)):
        split = cursor + rng.randrange(0, 10)
        heal = split + rng.randrange(1, 10)
        events.append(
            {
                "kind": "partition",
                "at_cycle": split,
                "n_groups": rng.randrange(2, 6),
            }
        )
        events.append({"kind": "heal", "at_cycle": heal})
        cursor = heal  # a new split may open the same cycle a heal closes
    return events


def gen_valid_payload(rng):
    """One random valid spec document (a plain JSON-ready mapping)."""
    bootstrap = rng.choice(BOOTSTRAP_KINDS)
    events = []
    # grow is valid on the empty bootstrap only, and required there.
    generators = [_gen_failure, _gen_churn, _gen_trace]
    if bootstrap == "empty":
        generators.append(_gen_grow)
    for _ in range(rng.randrange(0, 5)):
        events.append(rng.choice(generators)(rng))
    events.extend(_gen_partition_pairs(rng))
    if bootstrap == "empty" and not any(e["kind"] == "grow" for e in events):
        events.append(_gen_grow(rng))
    rng.shuffle(events)
    payload = {
        "name": "fuzz-" + "".join(rng.choices("abcdefgh", k=6)),
        "bootstrap": bootstrap,
        "events": events,
    }
    if rng.random() < 0.4:
        payload["cycles"] = rng.randrange(1, 500)
    if rng.random() < 0.3:
        payload["view_fill"] = rng.randrange(1, 40)
    if rng.random() < 0.3:
        payload["latency"] = round(rng.uniform(0.0, 5.0), 6)
    if rng.random() < 0.3:
        payload["loss"] = round(rng.random(), 6)
    if rng.random() < 0.3:
        payload["description"] = "generated by the fuzz suite"
    return payload


# -- corruption catalog ------------------------------------------------------
# Each entry mutates a valid payload into one that MUST be rejected.


def _corrupt_unknown_field(payload, rng):
    payload["budget"] = 7


def _corrupt_bad_bootstrap(payload, rng):
    payload["bootstrap"] = rng.choice(["ring", "", 7, None])


def _corrupt_empty_name(payload, rng):
    payload["name"] = rng.choice(["", 0, None])


def _corrupt_events_not_list(payload, rng):
    payload["events"] = {"kind": "grow"}


def _corrupt_event_not_mapping(payload, rng):
    payload["events"] = list(payload["events"]) + ["grow"]


def _corrupt_unknown_kind(payload, rng):
    payload["events"] = list(payload["events"]) + [{"kind": "meteor-strike"}]


def _corrupt_unknown_event_field(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "grow", "speed": 3}
    ]


def _corrupt_grow_target_zero(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "grow", "target": 0}
    ]


def _corrupt_fraction_out_of_range(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {
            "kind": "catastrophic-failure",
            "fraction": rng.choice([-0.1, 1.5, float("nan"), float("inf")]),
        }
    ]


def _corrupt_at_cycle_bad(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {
            "kind": "catastrophic-failure",
            "at_cycle": rng.choice([-1, 2.5, "soon", True]),
        }
    ]


def _corrupt_churn_all_zero(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "continuous-churn", "joins_per_cycle": 0, "leaves_per_cycle": 0}
    ]


def _corrupt_trace_session_zero(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "churn-trace", "session_length": 0}
    ]


def _corrupt_trace_window_inverted(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "churn-trace", "start_cycle": 10, "end_cycle": 10}
    ]


def _corrupt_single_group_partition(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "partition", "at_cycle": 900, "n_groups": 1},
        {"kind": "heal", "at_cycle": 901},
    ]


def _corrupt_unhealed_partition(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "partition", "at_cycle": 900}
    ]


def _corrupt_orphan_heal(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "heal", "at_cycle": 902}
    ]


def _corrupt_heal_not_after_partition(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "partition", "at_cycle": 900},
        {"kind": "heal", "at_cycle": 900},
    ]


def _corrupt_overlapping_partitions(payload, rng):
    payload["events"] = list(payload["events"]) + [
        {"kind": "partition", "at_cycle": 900},
        {"kind": "partition", "at_cycle": 901},
        {"kind": "heal", "at_cycle": 902},
        {"kind": "heal", "at_cycle": 903},
    ]


def _corrupt_cycles(payload, rng):
    payload["cycles"] = rng.choice([0, -3, 1.5, "many", True])


def _corrupt_view_fill(payload, rng):
    payload["view_fill"] = rng.choice([0, -1, 2.5, False])


def _corrupt_latency(payload, rng):
    payload["latency"] = rng.choice([-0.1, float("nan"), "fast", True])


def _corrupt_loss(payload, rng):
    payload["loss"] = rng.choice([-0.5, 1.0001, float("inf"), "half"])


def _corrupt_empty_without_grow(payload, rng):
    payload["bootstrap"] = "empty"
    payload["events"] = [
        event
        for event in payload["events"]
        if event.get("kind") != "grow"
    ]


CORRUPTIONS = [
    _corrupt_unknown_field,
    _corrupt_bad_bootstrap,
    _corrupt_empty_name,
    _corrupt_events_not_list,
    _corrupt_event_not_mapping,
    _corrupt_unknown_kind,
    _corrupt_unknown_event_field,
    _corrupt_grow_target_zero,
    _corrupt_fraction_out_of_range,
    _corrupt_at_cycle_bad,
    _corrupt_churn_all_zero,
    _corrupt_trace_session_zero,
    _corrupt_trace_window_inverted,
    _corrupt_single_group_partition,
    _corrupt_unhealed_partition,
    _corrupt_orphan_heal,
    _corrupt_heal_not_after_partition,
    _corrupt_overlapping_partitions,
    _corrupt_cycles,
    _corrupt_view_fill,
    _corrupt_latency,
    _corrupt_loss,
    _corrupt_empty_without_grow,
]


# -- properties --------------------------------------------------------------


class TestValidSpecs:
    def test_json_round_trip_identity(self):
        rng = random.Random(0xC0FFEE)
        for iteration in range(N_VALID):
            payload = gen_valid_payload(rng)
            try:
                spec = ScenarioSpec.from_dict(payload)
            except ConfigurationError as error:  # pragma: no cover
                pytest.fail(
                    f"generator produced an invalid payload at iteration "
                    f"{iteration}: {payload!r} -> {error}"
                )
            restored = ScenarioSpec.from_json(spec.to_json())
            assert restored == spec, f"iteration {iteration}: {payload!r}"
            # Serialization is a fixed point: parse(serialize(x)) keeps
            # serializing to the same bytes.
            assert restored.to_json() == spec.to_json()

    def test_replace_revalidates_generated_specs(self):
        rng = random.Random(0xBEEF)
        for _ in range(50):
            spec = ScenarioSpec.from_dict(gen_valid_payload(rng))
            assert spec.replace(cycles=17).cycles == 17
            with pytest.raises(ConfigurationError):
                spec.replace(loss=2.0)


class TestInvalidSpecs:
    def test_every_corruption_raises_configuration_error(self):
        rng = random.Random(0xDEAD)
        for iteration in range(N_INVALID):
            payload = gen_valid_payload(rng)
            corruption = CORRUPTIONS[iteration % len(CORRUPTIONS)]
            corruption(payload, rng)
            with pytest.raises(ConfigurationError):
                # Any other exception type (TypeError from an engine,
                # KeyError from a parser, ...) fails the suite: invalid
                # documents must die eagerly and uniformly.
                ScenarioSpec.from_dict(payload)

    def test_malformed_json_document(self):
        rng = random.Random(0xF00D)
        for fragment in ("]", "{", '{"name": }', "", "[]", '"spec"', "3"):
            with pytest.raises(ConfigurationError):
                ScenarioSpec.from_json(fragment)
        # Random byte noise: either valid JSON (never, for these) or a
        # clean ConfigurationError.
        for _ in range(100):
            noise = "".join(
                rng.choices('{}[]",:truefalse0123456789abc', k=rng.randrange(1, 30))
            )
            try:
                ScenarioSpec.from_json(noise)
            except ConfigurationError:
                pass
