"""``attack``: which peer sampling designs resist hub capture?

The paper's evaluation assumes honest nodes; this artefact re-runs the
random-convergence workload with a fraction ``f`` of **hub-poisoning**
attackers (every exchanged buffer replaced by fresh hop-0 descriptors of
the attacker set -- the strongest in-degree grab expressible on the
exchange contract) and reports, per protocol and fraction:

- ``attacker share``: the fraction of all view entries pointing at
  attackers (``indegree-concentration``);
- ``max indeg share``: the single most-referenced node's share of all
  links -- hub capture in one number even at ``f = 0``;
- ``TV``, ``chi^2/df``: how far honest nodes' pooled ``getPeer()``
  streams drift from uniform (``sampling-distance``).

Swept designs: the generic ``(rand,head,pushpull)`` instance, its
healer variant (does H > 0 age out the forged descriptors, or does the
attacker's hop-0 freshness defeat it?), the Cyclon and PeerSwap
extension samplers (do swap-style exchanges, which conserve pointers,
blunt the in-degree grab?), the Brahms defended sampler (limited
pushes, per-round quotas and min-wise sampler history -- the purpose-
built Byzantine defence), and the generic instance with descriptor
validation enabled (``;V``: does the cheap stateless sanitizer alone
already help?).

The ``f = 0`` generic run is *the* table2 ``(rand,head,pushpull)`` cell
-- same scenario, scale, engine and seed -- so its degree statistics
reproduce the existing randomness numbers exactly (asserted by
``tests/experiments/test_attack.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    Scale,
    current_scale,
    studied_protocols,
)
from repro.experiments.reporting import format_table
from repro.workloads import (
    AdversarySpec,
    ExperimentPlan,
    named_scenario,
    run_plans,
)

FRACTIONS = (0.0, 0.01, 0.1)
"""Attacker fractions swept per protocol."""

GENERIC_LABEL = "(rand,head,pushpull)"
"""The generic design the attack sweep anchors on (a table2 protocol)."""

ATTACK_MEASUREMENTS = (
    "degree-trace",
    "degrees",
    "sampling-distance",
    "indegree-concentration",
)
"""Per-cell measurements: table2's degree statistics plus the two attack
metrics (both extracted after the run, so the degree numbers of the
``f = 0`` generic cell equal table2's bit for bit)."""


@dataclasses.dataclass(frozen=True)
class AttackRow:
    """One (protocol, fraction) cell of the sweep."""

    protocol: str
    fraction: float
    engine: str
    attacker_share: float
    max_indegree_share: float
    total_variation: Optional[float]
    chi_square: Optional[float]
    mean_degree: float


@dataclasses.dataclass(frozen=True)
class AttackResult:
    """All rows plus the scale the sweep ran at."""

    scale: Scale
    rows: List[AttackRow]


def _protocol_axes(scale: Scale) -> List[Tuple[str, Optional[str], int]]:
    """``(label, engine, seed_index)`` per swept protocol.

    The generic protocol reuses its table2 seed index so the honest run
    reproduces the table2 record; extension protocols take indices past
    the table2 range and are pinned to the ``cycle`` engine (bespoke
    node factories).
    """
    table2_labels = [
        config.label for config in studied_protocols(scale.view_size)
    ]
    generic_index = table2_labels.index(GENERIC_LABEL)
    healer = max(1, min(8, scale.view_size // 2))
    return [
        (GENERIC_LABEL, None, generic_index),
        (f"{GENERIC_LABEL};h{healer}s0", None, len(table2_labels)),
        ("cyclon", "cycle", len(table2_labels) + 1),
        ("peerswap", "cycle", len(table2_labels) + 2),
        ("brahms", "cycle", len(table2_labels) + 3),
        (f"{GENERIC_LABEL};v", None, len(table2_labels) + 4),
    ]


def _scenario_for(scale: Scale, fraction: float) -> Any:
    """The plan scenario at one fraction (named = honest table2 cell)."""
    if fraction == 0.0:
        return "random-convergence"
    base = named_scenario("random-convergence", scale)
    return dataclasses.replace(
        base,
        name=f"{base.name}+hub{fraction:g}",
        adversary=AdversarySpec(kind="hub", fraction=fraction),
    )


def _row_from_record(record, fraction: float) -> AttackRow:
    concentration = record.measurements["indegree-concentration"]
    distance = record.measurements["sampling-distance"]
    return AttackRow(
        protocol=record.protocol,
        fraction=fraction,
        engine=record.engine,
        attacker_share=concentration["attacker_share"],
        max_indegree_share=concentration["max_indegree_share"],
        total_variation=distance["total_variation"],
        chi_square=distance["normalized_chi_square"],
        mean_degree=record.measurements["degrees"]["mean"],
    )


def run(
    scale: Optional[Scale] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> AttackResult:
    """Sweep ``fraction x protocol`` at the given scale.

    One single-cell plan per (protocol, fraction) -- per-protocol seeds,
    shared across fractions so ``f`` is the only moving part -- all
    executed through one pool (byte-identical at any worker count).
    """
    if scale is None:
        scale = current_scale()
    plans = []
    fractions: List[float] = []
    for label, engine, index in _protocol_axes(scale):
        for fraction in FRACTIONS:
            plans.append(
                ExperimentPlan(
                    name=f"attack {label} f={fraction:g}",
                    scenario=_scenario_for(scale, fraction),
                    protocols=(label,),
                    scales=(scale,),
                    engines=(engine,),
                    seeds=(seed * 65_537 + index,),
                    measurements=ATTACK_MEASUREMENTS,
                )
            )
            fractions.append(fraction)
    results = run_plans(plans, workers=workers)
    rows = [
        _row_from_record(result.records[0], fraction)
        for result, fraction in zip(results, fractions)
    ]
    return AttackResult(scale=scale, rows=rows)


def report(result: AttackResult) -> str:
    """Render the sweep as one table, protocols grouped, f ascending."""
    headers = [
        "protocol",
        "f",
        "engine",
        "attacker share",
        "max indeg share",
        "TV",
        "chi^2/df",
        "mean degree",
    ]
    rows: List[Sequence[object]] = [
        [
            row.protocol,
            row.fraction,
            row.engine,
            row.attacker_share,
            row.max_indegree_share,
            row.total_variation,
            row.chi_square,
            row.mean_degree,
        ]
        for row in result.rows
    ]
    title = (
        f"Attack sweep -- hub poisoning at f in {list(FRACTIONS)} "
        f"(scale={result.scale.name}, N={result.scale.n_nodes}, "
        f"c={result.scale.view_size}, K={result.scale.cycles})"
    )
    return format_table(headers, rows, precision=3, title=title)


def summary_dict(result: AttackResult) -> Dict[str, Any]:
    """JSON-ready summary of the sweep (scale, then one dict per row)."""
    return {
        "scale": result.scale.name,
        "n_nodes": result.scale.n_nodes,
        "fractions": list(FRACTIONS),
        "rows": [dataclasses.asdict(row) for row in result.rows],
    }


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point: run and print at the ambient scale."""
    print(report(run()))


if __name__ == "__main__":
    main()
