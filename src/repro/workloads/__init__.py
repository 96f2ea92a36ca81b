"""Declarative workload API: one scenario spec, every engine.

The package separates *what happens to the overlay* from *which executor
runs it*:

- :mod:`repro.workloads.spec` -- :class:`ScenarioSpec`, a serializable
  bootstrap + typed event schedule (``grow``, ``catastrophic-failure``,
  ``continuous-churn``, ``churn-trace``, ``partition``/``heal``) with
  eager validation and JSON round-tripping, plus the optional
  ``adversary`` block (:class:`AdversarySpec`) that arms
  :mod:`repro.adversary` attacks over the bootstrap population;
- :mod:`repro.workloads.library` -- the built-in named scenarios (the
  paper's workloads, scale-parameterized);
- :mod:`repro.workloads.runtime` -- :func:`prepare_run` /
  :func:`compile_scenario`, compiling a spec into the right observers
  and run-loop hooks for any registry engine (``cycle``, ``fast``,
  ``event``, ``fast-event``, ``live``), including exact sub-cycle
  churn-trace execution on the event engines;
- :mod:`repro.workloads.measure` -- :data:`MEASUREMENTS`, the one
  measurement vocabulary (what a run records and when), and
  :func:`measure`, which records named entries over any prepared run;
- :mod:`repro.workloads.plan` -- :class:`ExperimentPlan`
  (``protocols x scenario x scales x engines x seeds``) and
  :func:`run_plan`, the single driver behind
  ``repro-experiments run-spec``.

Quickstart::

    from repro import newscast
    from repro.workloads import (
        CatastrophicFailure, ScenarioSpec, prepare_run,
    )

    spec = ScenarioSpec(
        name="heal-demo",
        bootstrap="random",
        cycles=60,
        events=(CatastrophicFailure(at_cycle=40, fraction=0.5),),
    )
    runtime = prepare_run(
        spec, newscast(view_size=12), n_nodes=300, seed=1, engine="fast"
    )
    runtime.run_to_end()
    print(runtime.handle(type(runtime.handles[0])).dead_links_after)

Every artefact module (``repro.experiments.table1`` ... ``figure7``)
builds its runs through this API; the cross-engine byte-identity of a
spec execution is pinned by ``tests/simulation/test_conformance.py``.
"""

from repro.core.errors import PlanExecutionError
from repro.workloads.library import SCENARIOS, named_scenario
from repro.workloads.measure import MEASUREMENTS, measure
from repro.workloads.plan import (
    ExperimentPlan,
    PlanCell,
    PlanResult,
    RunRecord,
    execute_cell,
    plan_cells,
    run_plan,
    run_plans,
)
from repro.workloads.runtime import (
    FailureHandle,
    ScenarioRuntime,
    compile_scenario,
    generate_trace,
    prepare_run,
    views_digest,
    warm_shared_caches,
)
from repro.workloads.spec import (
    ADVERSARY_KINDS,
    BOOTSTRAP_KINDS,
    EVENT_KINDS,
    AdversarySpec,
    CatastrophicFailure,
    ChurnTrace,
    ContinuousChurn,
    Grow,
    Heal,
    Partition,
    ScenarioEvent,
    ScenarioSpec,
)

__all__ = [
    "ADVERSARY_KINDS",
    "BOOTSTRAP_KINDS",
    "EVENT_KINDS",
    "MEASUREMENTS",
    "SCENARIOS",
    "AdversarySpec",
    "CatastrophicFailure",
    "ChurnTrace",
    "ContinuousChurn",
    "ExperimentPlan",
    "FailureHandle",
    "Grow",
    "Heal",
    "Partition",
    "PlanCell",
    "PlanExecutionError",
    "PlanResult",
    "RunRecord",
    "ScenarioEvent",
    "ScenarioRuntime",
    "ScenarioSpec",
    "compile_scenario",
    "execute_cell",
    "generate_trace",
    "measure",
    "named_scenario",
    "plan_cells",
    "prepare_run",
    "run_plan",
    "run_plans",
    "run_scenario",
    "views_digest",
    "warm_shared_caches",
]


def run_scenario(spec, config, **kwargs):
    """Prepare and run a spec in one call; returns the finished runtime.

    Convenience wrapper over :func:`prepare_run` +
    :meth:`~repro.workloads.runtime.ScenarioRuntime.run_to_end` for
    scripts that only need the final state.
    """
    runtime = prepare_run(spec, config, **kwargs)
    runtime.run_to_end()
    return runtime
