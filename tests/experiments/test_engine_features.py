"""The engine x feature table: every entry point answers from it.

``EXPECTED`` pins the table itself; the parametrised test then asks each
library entry point for every (engine, feature) pair -- ``make_engine``
(or ``compile_scenario`` for the adversary block, which ``make_engine``
cannot express) and ``plan_cells`` -- and requires acceptance exactly
where the table says yes, and a rejection naming engine and feature
everywhere else.
"""

import pathlib

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.experiments.common import ENGINES, make_engine
from repro.experiments.runner import engine_table
from repro.simulation.base import FEATURES
from repro.workloads import (
    AdversarySpec,
    ExperimentPlan,
    ScenarioSpec,
    compile_scenario,
    plan_cells,
)

EXPECTED = {
    "cycle": {"adversary", "validation", "extension"},
    "fast": {"adversary", "validation"},
    "live": {"adversary", "validation"},
    "event": {"latency", "loss", "adversary", "validation"},
    "fast-event": {"latency", "loss", "adversary", "validation"},
    "fast-sharded": {"shards"},
}

PLAIN = "(rand,head,pushpull)"


def test_table_is_the_declared_one():
    assert {name: set(cls.features) for name, cls in ENGINES.items()} == (
        EXPECTED
    )
    for supported in EXPECTED.values():
        assert supported <= set(FEATURES)


def _make(name, feature):
    """Ask ``make_engine`` (or ``compile_scenario``) for ``feature``."""
    config = ProtocolConfig.from_label(PLAIN, 6)
    if feature == "validation":
        return make_engine(
            ProtocolConfig.from_label(PLAIN + ";V", 6), seed=1, engine=name
        )
    knob = {"latency": 0.1, "loss": 0.1, "shards": 1}.get(feature)
    if knob is not None:
        return make_engine(config, seed=1, engine=name, **{feature: knob})
    assert feature == "adversary"
    engine = make_engine(config, seed=1, engine=name)
    spec = ScenarioSpec(
        name="attacked", bootstrap="random",
        adversary=AdversarySpec(kind="hub", fraction=0.2),
    )
    try:
        compile_scenario(spec, engine, n_nodes=10, cycles=1)
    except ConfigurationError:
        _close(engine)
        raise
    return engine


def _close(engine):
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def _plan(name, feature):
    """An ExperimentPlan whose one cell asks ``name`` for ``feature``."""
    scenario = {"name": "asks", "bootstrap": "random"}
    if feature in ("latency", "loss"):
        scenario[feature] = 0.1
    if feature == "adversary":
        scenario["adversary"] = AdversarySpec(kind="hub", fraction=0.2)
    protocol = {"validation": PLAIN + ";V", "extension": "cyclon"}.get(
        feature, PLAIN
    )
    return ExperimentPlan(
        name="asks", scenario=ScenarioSpec(**scenario), protocols=(protocol,),
        engines=(name,), seeds=(0,), n_nodes=10, cycles=1,
    )


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_entry_points_follow_the_table(name, feature, monkeypatch):
    for var in ("REPRO_LATENCY", "REPRO_LOSS", "REPRO_SHARDS"):
        monkeypatch.delenv(var, raising=False)
    if feature == "shards":  # a plan asks through the environment only
        monkeypatch.setenv("REPRO_SHARDS", "1")
    supported = feature in EXPECTED[name]
    calls = [lambda: plan_cells(_plan(name, feature))]
    if feature != "extension":  # a plan-level notion: no make_engine form
        calls.append(lambda: _close(_make(name, feature)))
    for call in calls:
        if supported:
            call()
            continue
        with pytest.raises(ConfigurationError) as error:
            call()
        assert f"engine {name!r}" in str(error.value)
        assert repr(feature) in str(error.value)


def test_readme_carries_the_rendered_table():
    readme = pathlib.Path(__file__).resolve().parents[2] / "README.md"
    assert "\n".join(engine_table()) in readme.read_text(encoding="utf-8")
