"""Figure 5: autocorrelation of a fixed node's degree over time.

For the four rand-peer-selection protocols the paper plots the
autocorrelation of a node's degree time series (300 cycles) against the
time lag, with a 99% confidence band for an i.i.d. series.

Qualitative shape to reproduce:

- ``(rand,head,pushpull)`` stays essentially inside the band --
  "practically random";
- ``(rand,head,push)`` shows weak high-frequency structure;
- ``(*,rand,*)`` shows strong short-term correlation and slow oscillation
  (large positive values at small lags decaying slowly).

To tame single-node noise at reduced scales, the autocorrelation is
averaged over ``traced_nodes`` independent nodes of the same run (each
node's series is an identically distributed sample of the same process;
the paper uses a single node at K = 300).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import (
    Scale,
    autocorrelation_protocols,
    current_scale,
)
from repro.experiments.reporting import format_series
from repro.stats.autocorrelation import (
    autocorrelation,
    confidence_band,
    fraction_outside_band,
)
from repro.workloads import ExperimentPlan, run_plans


@dataclasses.dataclass(frozen=True)
class Figure5Result:
    """Autocorrelation curves and the i.i.d. confidence band."""

    scale: Scale
    max_lag: int
    lags: List[int]
    curves: Dict[str, List[float]]
    """Protocol label -> mean autocorrelation per lag."""
    band: float
    """99% confidence half-width for a single series of length K."""
    fraction_outside: Dict[str, float]
    """Protocol label -> fraction of lags outside the band."""


def _mean_curve(record, max_lag: int) -> np.ndarray:
    curves = [
        autocorrelation(series, max_lag)
        for series in record.measurements["degree-trace"]["series"]
    ]
    return np.mean(np.stack(curves), axis=0)


def run(scale: Optional[Scale] = None, seed: int = 0) -> Figure5Result:
    """Reproduce Figure 5 at the given scale.

    ``max_lag`` follows the paper's 140-of-300 proportion, bounded by half
    the scaled cycle count.  One single-cell plan per protocol, with
    per-protocol seeds, executed through one shared pool.
    """
    if scale is None:
        scale = current_scale()
    max_lag = min(140, scale.cycles // 2)
    band = confidence_band(scale.cycles, level=0.99)
    plans = [
        ExperimentPlan(
            name=f"figure5 {config.label}",
            scenario="random-convergence",
            protocols=(config.label,),
            scales=(scale,),
            engines=(None,),
            seeds=(seed * 49_999 + index,),
            measurements=("degree-trace",),
        )
        for index, config in enumerate(
            autocorrelation_protocols(scale.view_size)
        )
    ]
    curves: Dict[str, List[float]] = {}
    outside: Dict[str, float] = {}
    for result in run_plans(plans):
        record = result.records[0]
        curve = _mean_curve(record, max_lag)
        curves[record.protocol] = curve.tolist()
        outside[record.protocol] = fraction_outside_band(curve, band)
    return Figure5Result(
        scale=scale,
        max_lag=max_lag,
        lags=list(range(max_lag + 1)),
        curves=curves,
        band=band,
        fraction_outside=outside,
    )


def report(result: Figure5Result) -> str:
    """Render the curves (thinned) and the band-violation summary."""
    columns = list(result.curves.items())
    series = format_series(
        "lag",
        result.lags,
        columns,
        precision=3,
        title=(
            f"Figure 5 -- degree autocorrelation vs lag "
            f"(scale={result.scale.name}, K={result.scale.cycles}); "
            f"99% i.i.d. band = +-{result.band:.3f}"
        ),
        max_rows=15,
    )
    summary_lines = ["", "fraction of lags outside the 99% band:"]
    for label, fraction in result.fraction_outside.items():
        verdict = "practically random" if fraction < 0.10 else "structured"
        summary_lines.append(f"  {label:24s} {fraction:6.1%}  ({verdict})")
    return series + "\n" + "\n".join(summary_lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point: run and print at the ambient scale."""
    print(report(run()))


if __name__ == "__main__":
    main()
