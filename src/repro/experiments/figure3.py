"""Figure 3: convergence from lattice and random initial topologies.

For all eight studied protocols, the paper tracks average path length,
clustering coefficient and average node degree over the first 100 cycles
starting from (i) a ring lattice (structured, large diameter) and (ii) a
uniform random topology.

Qualitative shape to reproduce:

- from the lattice, the initially huge path length collapses within a few
  cycles to near the random value (paper plots it on a log scale);
- from both starts, every protocol converges to the *same* per-protocol
  values -- self-organization independent of initial conditions;
- clustering converges above the random baseline for every protocol,
  lowest for ``(*,rand,pushpull)``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.baselines.random_topology import random_baseline_metrics
from repro.experiments.common import (
    Scale,
    current_scale,
    studied_protocols,
)
from repro.experiments.figure2 import MetricSeries
from repro.experiments.reporting import format_series
from repro.workloads import ScenarioSpec, measure, prepare_run
from repro.workloads.measure import read_now

SCENARIOS = ("lattice", "random")
"""The two initializations of Figure 3 (spec bootstrap kinds)."""


@dataclasses.dataclass(frozen=True)
class Figure3Result:
    """Metric series per scenario per protocol, plus the baseline."""

    scale: Scale
    series: Dict[str, List[MetricSeries]]
    """Scenario name -> one series per protocol."""
    baseline: Dict[str, float]


def _run_one(config, scenario: str, scale: Scale, seed: int) -> MetricSeries:
    runtime = prepare_run(
        ScenarioSpec(name=f"{scenario}-convergence", bootstrap=scenario),
        config,
        scale=scale,
        seed=seed,
        # The paper ran 300 cycles but plots the first 100 (the
        # interesting transient); we mirror that 1/3 proportion.
        cycles=max(scale.cycles // 3, 3 * scale.metrics_every),
    )
    # The series opens with the bootstrap overlay as its cycle-0 row on
    # every engine family (the spec has no events, so nothing else runs
    # first).
    initial = read_now(runtime, "metrics", scale)
    extract = measure(runtime, ("metrics",), scale)
    runtime.run_to_end()
    metrics = extract()["metrics"]
    return MetricSeries(
        label=config.label,
        **{key: initial[key] + metrics[key] for key in metrics},
    )


def run(scale: Optional[Scale] = None, seed: int = 0) -> Figure3Result:
    """Reproduce Figure 3 at the given scale."""
    if scale is None:
        scale = current_scale()
    series: Dict[str, List[MetricSeries]] = {}
    for scenario_index, scenario in enumerate(SCENARIOS):
        runs: List[MetricSeries] = []
        for index, config in enumerate(studied_protocols(scale.view_size)):
            run_seed = seed * 104_729 + scenario_index * 1_299_709 + index
            runs.append(_run_one(config, scenario, scale, run_seed))
        series[scenario] = runs
    baseline = random_baseline_metrics(
        scale.n_nodes,
        scale.view_size,
        clustering_sample=scale.clustering_sample,
        path_sources=scale.path_sources,
    )
    return Figure3Result(scale=scale, series=series, baseline=baseline)


_PANELS = (
    ("average_path_length", "average path length", "average_path_length"),
    ("clustering", "clustering coefficient", "clustering"),
    ("average_degree", "average node degree", "average_degree"),
)


def report(result: Figure3Result) -> str:
    """Render the six panels (two scenarios x three metrics)."""
    blocks: List[str] = []
    for scenario in SCENARIOS:
        runs = result.series[scenario]
        for attribute, metric_title, baseline_key in _PANELS:
            columns = [(s.label, getattr(s, attribute)) for s in runs]
            blocks.append(
                format_series(
                    "cycle",
                    runs[0].cycles,
                    columns,
                    precision=3,
                    title=(
                        f"Figure 3 ({scenario}, {metric_title}) -- "
                        f"scale={result.scale.name}; random baseline = "
                        f"{result.baseline[baseline_key]:.3f}"
                    ),
                    max_rows=10,
                )
            )
    return "\n\n".join(blocks)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point: run and print at the ambient scale."""
    print(report(run()))


if __name__ == "__main__":
    main()
