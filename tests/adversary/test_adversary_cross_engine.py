"""Attacks through the plan layer: identical measurement records on
``cycle`` and ``fast``.

Run-level byte identity of every attack kind, windowed and whole-run,
on plain and ``;v`` protocols, on every engine of both families, is
pinned by the conformance suite
(``tests/simulation/test_conformance.py``); this module adds the plan
layer, where the adversary measurements are computed.
"""

import pytest

from repro.experiments.common import Scale
from repro.workloads import (
    AdversarySpec,
    ExperimentPlan,
    ScenarioSpec,
    run_plan,
)

SCALE = Scale(
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


@pytest.mark.parametrize("kind", ("hub", "drop"))
def test_plan_records_identical_on_cycle_and_fast(kind):
    """The acceptance criterion at the plan layer: identical measurement
    records (including the adversary measurements) on both engines."""
    spec = ScenarioSpec(
        name=f"{kind}-attack",
        bootstrap="random",
        cycles=10,
        adversary=AdversarySpec(kind=kind, fraction=0.1),
    )
    records = {}
    for engine in ("cycle", "fast"):
        plan = ExperimentPlan(
            name=f"adversary-{kind}-{engine}",
            scenario=spec,
            protocols=("(rand,head,pushpull)",),
            scales=(SCALE,),
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
