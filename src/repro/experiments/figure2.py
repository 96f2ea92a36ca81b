"""Figure 2: topology dynamics in the growing scenario.

The overlay grows from one node while the protocol runs; the figure tracks
(a) the clustering coefficient, (b) the average node degree and (c) the
average path length over 300 cycles for the six stable protocols, against
the uniform random topology's values (horizontal lines).

Qualitative shape to reproduce:

- pushpull variants converge quickly to stable values once growth ends;
- push-only variants converge very slowly (the star-like bootstrap is a
  bottleneck for push);
- ``(*,rand,pushpull)`` lands closest to the random baseline on these
  three metrics (but see Figure 4: its degree distribution is the least
  random).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.baselines.random_topology import random_baseline_metrics
from repro.experiments.common import (
    Scale,
    current_scale,
    growing_plot_protocols,
)
from repro.experiments.reporting import format_series
from repro.workloads import ExperimentPlan, run_plans


@dataclasses.dataclass(frozen=True)
class MetricSeries:
    """Per-cycle topology metrics of one protocol run."""

    label: str
    cycles: List[int]
    clustering: List[float]
    average_degree: List[float]
    average_path_length: List[float]


@dataclasses.dataclass(frozen=True)
class Figure2Result:
    """All protocol series plus the random baseline."""

    scale: Scale
    series: List[MetricSeries]
    baseline: Dict[str, float]
    growth_end_cycle: int


def _series(record) -> MetricSeries:
    metrics = record.measurements["metrics"]
    return MetricSeries(
        label=record.protocol,
        cycles=metrics["cycles"],
        clustering=metrics["clustering"],
        average_degree=metrics["average_degree"],
        average_path_length=metrics["average_path_length"],
    )


def run(scale: Optional[Scale] = None, seed: int = 0) -> Figure2Result:
    """Reproduce Figure 2 at the given scale (single run per protocol,
    as in the paper): one single-cell plan per protocol, with
    per-protocol seeds, executed through one shared pool."""
    if scale is None:
        scale = current_scale()
    plans = [
        ExperimentPlan(
            name=f"figure2 {config.label}",
            scenario="growing-overlay",
            protocols=(config.label,),
            scales=(scale,),
            engines=(None,),
            seeds=(seed * 7_919 + index,),
            measurements=("metrics",),
        )
        for index, config in enumerate(growing_plot_protocols(scale.view_size))
    ]
    series = [_series(result.records[0]) for result in run_plans(plans)]
    baseline = random_baseline_metrics(
        scale.n_nodes,
        scale.view_size,
        clustering_sample=scale.clustering_sample,
        path_sources=scale.path_sources,
    )
    return Figure2Result(
        scale=scale,
        series=series,
        baseline=baseline,
        growth_end_cycle=scale.growth_cycles,
    )


def _metric_block(
    result: Figure2Result, attribute: str, metric_title: str, baseline_key: str
) -> str:
    columns = [
        (s.label, getattr(s, attribute)) for s in result.series
    ]
    body = format_series(
        "cycle",
        result.series[0].cycles,
        columns,
        precision=3,
        title=(
            f"Figure 2 ({metric_title}) -- growing scenario, "
            f"scale={result.scale.name}; random baseline = "
            f"{result.baseline[baseline_key]:.3f}; growth ends at cycle "
            f"{result.growth_end_cycle}"
        ),
        max_rows=12,
    )
    return body


def report(result: Figure2Result) -> str:
    """Render the three sub-figures as thinned series tables."""
    blocks = [
        _metric_block(result, "clustering", "a: clustering coefficient", "clustering"),
        _metric_block(result, "average_degree", "b: average node degree", "average_degree"),
        _metric_block(
            result, "average_path_length", "c: average path length", "average_path_length"
        ),
    ]
    return "\n\n".join(blocks)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point: run and print at the ambient scale."""
    print(report(run()))


if __name__ == "__main__":
    main()
