"""The adversary acceptance contract: attacks are deterministic and
byte-identical across the engine families.

Same spec + seed + fraction must produce the same final views (full
``views()`` digest) and the same exchange counters across the cycle
family (``cycle``/``fast``/``live``) and, separately, across the event
family (``event``/``fast-event``); through the plan layer the cycle
family additionally produces identical measurement records.  The CI
``defenses`` job runs this module on both kernel paths (C core and
``REPRO_NO_ACCEL=1``), so the parity below is pinned for the pure-Python
and accelerated loops alike.
"""

import dataclasses

import pytest

from repro.core.config import ProtocolConfig
from repro.experiments.common import Scale
from repro.workloads import (
    AdversarySpec,
    CatastrophicFailure,
    ContinuousChurn,
    ExperimentPlan,
    ScenarioSpec,
    prepare_run,
    run_plan,
    views_digest,
)

CYCLE_FAMILY = ("cycle", "fast", "live")
EVENT_FAMILY = ("event", "fast-event")

KIND_SPECS = {
    "hub": AdversarySpec(kind="hub", fraction=0.1),
    "eclipse": AdversarySpec(kind="eclipse", fraction=0.1, victims=(0, 1, 2)),
    "tamper": AdversarySpec(kind="tamper", fraction=0.1),
    "drop": AdversarySpec(kind="drop", fraction=0.1),
}

PROTOCOLS = (
    "(rand,head,pushpull)",
    "(rand,rand,pushpull)",
    "(tail,head,push)",
    "(rand,head,pushpull);h2s2",
)

VALIDATING = (
    "(rand,head,pushpull);v",
    "(rand,rand,pushpull);v",
    "(tail,rand,pushpull);h2s2;v",
)
"""Defended designs: the receive step must sanitise attacked buffers on
every engine (the fast engine's adversarial loop once skipped it)."""


def attacked_spec(kind, **overrides):
    adversary = KIND_SPECS[kind]
    if overrides:
        adversary = adversary.replace(**overrides)
    return ScenarioSpec(
        name=f"{kind}-attack",
        bootstrap="random",
        cycles=10,
        adversary=adversary,
    )


def run_once(spec, engine, protocol="(rand,head,pushpull)", seed=5,
             n_nodes=40):
    runtime = prepare_run(
        spec,
        ProtocolConfig.from_label(protocol, 6),
        n_nodes=n_nodes,
        seed=seed,
        engine=engine,
    )
    runtime.run_to_end()
    engine_obj = runtime.engine
    outcome = (
        views_digest(engine_obj),
        engine_obj.completed_exchanges,
        engine_obj.failed_exchanges,
    )
    close = getattr(engine_obj, "close", None)
    if close is not None:
        close()
    return outcome


@pytest.mark.parametrize("protocol", PROTOCOLS[:1] + VALIDATING)
@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_cycle_family_byte_identical(kind, protocol):
    spec = attacked_spec(kind)
    outcomes = {
        engine: run_once(spec, engine, protocol=protocol)
        for engine in CYCLE_FAMILY
    }
    assert len(set(outcomes.values())) == 1, (protocol, outcomes)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_identity_across_protocol_designs(protocol):
    spec = attacked_spec("hub")
    outcomes = {
        engine: run_once(spec, engine, protocol=protocol)
        for engine in CYCLE_FAMILY
    }
    assert len(set(outcomes.values())) == 1, (protocol, outcomes)


@pytest.mark.parametrize("protocol", PROTOCOLS[:1] + VALIDATING)
@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_identity_with_attack_window(kind, protocol):
    spec = attacked_spec(kind, start_cycle=3, stop_cycle=8)
    outcomes = {
        engine: run_once(spec, engine, protocol=protocol)
        for engine in CYCLE_FAMILY
    }
    assert len(set(outcomes.values())) == 1, (protocol, outcomes)


def test_identity_under_non_omniscient_selection():
    spec = dataclasses.replace(
        attacked_spec("eclipse"),
        events=(),
    )
    # cycle vs fast only: the live engine always resolves liveness
    # through real reachability, orthogonal to this flag.
    from repro.workloads import prepare_run as _prepare

    outcomes = {}
    for engine in ("cycle", "fast"):
        runtime = _prepare(
            spec,
            ProtocolConfig.from_label("(rand,head,pushpull)", 6),
            n_nodes=40,
            seed=5,
            engine=engine,
            omniscient_peer_selection=False,
        )
        runtime.run_to_end()
        outcomes[engine] = (
            views_digest(runtime.engine),
            runtime.engine.completed_exchanges,
            runtime.engine.failed_exchanges,
        )
    assert len(set(outcomes.values())) == 1, outcomes


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_event_family_byte_identical(kind):
    spec = attacked_spec(kind)
    outcomes = {
        engine: run_once(spec, engine) for engine in EVENT_FAMILY
    }
    assert len(set(outcomes.values())) == 1, outcomes


@pytest.mark.parametrize("protocol", PROTOCOLS + VALIDATING)
def test_event_family_identity_across_designs(protocol):
    spec = attacked_spec("hub")
    outcomes = {
        engine: run_once(spec, engine, protocol=protocol)
        for engine in EVENT_FAMILY
    }
    assert len(set(outcomes.values())) == 1, (protocol, outcomes)


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_event_family_identity_with_window(kind):
    spec = attacked_spec(kind, start_cycle=3, stop_cycle=8)
    outcomes = {
        engine: run_once(spec, engine) for engine in EVENT_FAMILY
    }
    assert len(set(outcomes.values())) == 1, outcomes


@pytest.mark.parametrize(
    "events",
    [
        (CatastrophicFailure(at_cycle=5, fraction=0.2),),
        (ContinuousChurn(joins_per_cycle=2, leaves_per_cycle=2),),
    ],
    ids=["catastrophic-failure", "continuous-churn"],
)
def test_event_family_identity_under_churn(events):
    spec = dataclasses.replace(attacked_spec("hub"), events=events)
    outcomes = {
        engine: run_once(spec, engine) for engine in EVENT_FAMILY
    }
    assert len(set(outcomes.values())) == 1, outcomes


def test_event_family_attack_changes_the_run():
    honest = ScenarioSpec(name="honest", bootstrap="random", cycles=10)
    for kind in sorted(KIND_SPECS):
        attacked = attacked_spec(kind)
        assert run_once(attacked, "event") != run_once(honest, "event"), kind


def test_attack_changes_the_run():
    honest = ScenarioSpec(name="honest", bootstrap="random", cycles=10)
    for kind in KIND_SPECS:
        attacked = attacked_spec(kind)
        assert run_once(attacked, "cycle") != run_once(honest, "cycle"), kind


@pytest.mark.parametrize("kind", ("hub", "drop"))
def test_plan_records_identical_on_cycle_and_fast(kind):
    """The acceptance criterion at the plan layer: identical measurement
    records (including the adversary measurements) on both engines."""
    spec = attacked_spec(kind)
    scale = Scale(
        name="tiny",
        n_nodes=40,
        view_size=6,
        cycles=10,
        growth_cycles=5,
        runs=1,
        traced_nodes=4,
        removal_repeats=1,
        metrics_every=1,
        clustering_sample=None,
        path_sources=None,
    )
    records = {}
    for engine in ("cycle", "fast"):
        plan = ExperimentPlan(
            name=f"adversary-{kind}-{engine}",
            scenario=spec,
            protocols=("(rand,head,pushpull)",),
            scales=(scale,),
            engines=(engine,),
            seeds=(5,),
            measurements=(
                "indegree-concentration",
                "eclipse-exposure",
                "sampling-distance",
                "degrees",
            ),
        )
        result = run_plan(plan)
        (record,) = result.records
        records[engine] = (record.views_digest, record.measurements)
    assert records["cycle"] == records["fast"], records
