"""Runs, result sets and their comparison.

:func:`run_workload` is the whole benchmark for one workload in this
process: differential gate, passes, cross-pass fingerprint check and, in
the traced run, the per-layer extras.  Everything above it -- the
contract line the driver reads, the ledger's interleaved children, the
result-set files and ``compare`` -- only rearranges what it returns.

``BENCHMARK.json`` at the repository root is the one list of metric
names, units, directions and bounds; nothing here repeats it.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from perfkit import (
    PERF_DIR,
    REPO_ROOT,
    Tracer,
    quartiles,
    self_time_by_name,
    spread,
)
from perfloads import WORKLOADS, CheckFailed, Context, Sizes, run_pass

GOLDEN_PATH = os.path.join(PERF_DIR, "golden.json")
MIN_PASSES = 2
"""Passes of every run, however long they take: a metric's value is a
median over passes, and the fingerprint must repeat at least once."""

_SECONDS_IN = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one workload, this process ----------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = Sizes(),
    program_load: Optional[Callable[[], Tuple[float, float]]] = None,
    golden: Optional[str] = None,
) -> Dict[str, Any]:
    """Run ``name`` and return its (JSON-ready) run result.

    Untraced, passes repeat while another one fits into ``seconds``
    (always at least :data:`MIN_PASSES`); :func:`run_value` takes each
    metric's value from them.  Traced, there is one untraced pass, one
    traced pass and the workload's extras; ``trace_overhead_share``
    compares the two passes.  ``program_load`` measures what a process
    spends importing the program and loading the C core, and the core's
    part of it: the first goes into every pass's ``setup_s``, the second
    into the layer ``simulation.accel_load_s``.  It is called after the
    passes, so that any process it starts stays out of their peak RSS.
    ``golden`` is the fingerprint this seed must reproduce, if known.
    Raises :class:`CheckFailed` on any wrong output.
    """
    workload = WORKLOADS[name]
    tracer = Tracer(name, enabled=trace)
    ctx = Context(sizes, seed, tracer)
    started = time.perf_counter()
    layers = workload.gate(ctx)
    gc.collect()
    passes = []
    pass_seconds = 0.0

    def one_pass():
        nonlocal pass_seconds
        pass_started = time.perf_counter()
        ctx.first_pass = not passes
        tracer.pass_index = len(passes)
        result = run_pass(workload, ctx)
        if passes and result.fingerprint != passes[0].fingerprint:
            raise CheckFailed(
                f"fingerprint {result.fingerprint[:12]} of pass "
                f"{len(passes)} differs from pass 0 "
                f"({passes[0].fingerprint[:12]}) for the same seed"
            )
        passes.append(result)
        pass_seconds = time.perf_counter() - pass_started
        return result

    def another_fits() -> bool:
        return time.perf_counter() - started + pass_seconds <= seconds

    tracer.enabled = False
    first = one_pass()
    if golden is not None and first.fingerprint != golden:
        raise CheckFailed(
            f"fingerprint {first.fingerprint[:12]} differs from golden "
            f"{golden[:12]} for seed {seed}"
        )
    if trace:
        tracer.enabled = True
        traced = one_pass()
        layers.update(traced.layers)
        layers.update(workload.extras(ctx, traced.metrics))
        layers["trace_overhead_share"] = (
            traced.metrics["wall_s"] / first.metrics["wall_s"] - 1.0
        )
    else:
        while len(passes) < MIN_PASSES or another_fits():
            one_pass()
    if program_load is not None:
        load_s, accel_load_s = program_load()
        for result in passes:
            result.metrics["setup_s"] += load_s
        if trace:
            layers["simulation.accel_load_s"] = accel_load_s
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "fingerprint": first.fingerprint,
        "counters": first.counters,
        "passes": [
            {"metrics": p.metrics, "summaries": p.summaries} for p in passes
        ],
        "layers": layers,
        "spans": tracer.spans,
        "self_s": self_time_by_name(tracer.spans),
    }


def run_value(run: Dict[str, Any], metric: Dict[str, Any]) -> Optional[float]:
    """The run's value of one end-to-end metric: the median over its
    passes of the per-pass value.

    The shared box runs in a common state, a rare faster one and slower
    stretches; the best pass reads whichever of the first two a run
    happened to meet, the median stays with the common one.  ``None``
    where the metric is not defined on the workload.
    """
    values = [
        p["metrics"][metric["name"]]
        for p in run["passes"]
        if metric["name"] in p["metrics"]
    ]
    return statistics.median(values) if values else None


def contract_metrics(
    run: Dict[str, Any], benchmark: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """The ``metrics`` object of the driver's result line.

    The driver wants every metric on every workload.  Untraced, a metric
    this workload does not define is filled from the workload's own
    ``wall_s``: a time reads the wall time in its unit, a rate reads the
    attempted operations per wall second.  Traced, a layer that does no
    work on this workload reads 0.
    """
    if run["trace"]:
        return {
            m["name"]: {
                "value": run["layers"].get(m["name"], 0.0),
                "unit": m["unit"],
            }
            for m in benchmark["per_layer"]
        }
    by_name = {m["name"]: m for m in benchmark["end_to_end"]}
    wall = run_value(run, by_name["wall_s"])
    metrics = {}
    for m in benchmark["end_to_end"]:
        value = run_value(run, m)
        if value is None and m["unit"] in _SECONDS_IN:
            value = wall * _SECONDS_IN[m["unit"]]
        elif value is None:
            value = run["attempted"] / len(run["passes"]) / wall
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def contract_line(run: Dict[str, Any], benchmark: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": True,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": contract_metrics(run, benchmark),
        }
    )


# -- golden fingerprints -----------------------------------------------------


def load_golden() -> Dict[str, Any]:
    try:
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def golden_fingerprint(
    golden: Dict[str, Any], python_minor: str, seed: int, workload: str
) -> Optional[str]:
    return golden.get(python_minor, {}).get(str(seed), {}).get(workload)


def update_golden(result_set: Dict[str, Any]) -> None:
    """Rewrite the golden entry of the set's seed and Python minor."""
    golden = load_golden()
    per_seed = golden.setdefault(result_set["host"]["python_minor"], {})
    per_seed[str(result_set["seed"])] = {
        name: entry["fingerprint"]
        for name, entry in sorted(result_set["workloads"].items())
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- result sets -------------------------------------------------------------


def build_result_set(
    runs: Iterable[Dict[str, Any]],
    host: Dict[str, Any],
    seed: int,
    benchmark: Dict[str, Any],
) -> Dict[str, Any]:
    """Fold the ledger's interleaved child runs into one set per
    workload: per-run values, median and quartiles of every metric."""
    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    workloads = {}
    for name, group in by_workload.items():
        fingerprints = {run["fingerprint"] for run in group}
        if len(fingerprints) != 1:
            raise CheckFailed(
                f"{name}: fingerprints differ across passes: "
                f"{sorted(f[:12] for f in fingerprints)}"
            )
        metrics = {}
        for m in benchmark["end_to_end"]:
            values = [run_value(run, m) for run in group]
            if values[0] is not None:
                q1, median, q3 = quartiles(values)
                metrics[m["name"]] = {
                    "unit": m["unit"],
                    "values": values,
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                }
        last = group[-1]
        workloads[name] = {
            "fingerprint": last["fingerprint"],
            "counters": last["counters"],
            "attempted": sum(run["attempted"] for run in group),
            "failed": sum(run["failed"] for run in group),
            "metrics": metrics,
            "summaries": last["passes"][-1]["summaries"],
            "layers": last["layers"],
            "self_s": last["self_s"],
        }
    return {"host": host, "seed": seed, "workloads": workloads}


def report_lines(
    result_set: Dict[str, Any], benchmark: Dict[str, Any]
) -> List[str]:
    """Every metric by name with its unit, one workload after another."""
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    lines = []
    for name, entry in result_set["workloads"].items():
        lines.append(f"{name}  fingerprint {entry['fingerprint'][:16]}")
        for metric, stats in entry["metrics"].items():
            lines.append(
                f"  {metric:<18} {stats['median']:>14.6g} {stats['unit']:<5} "
                f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                f"runs {len(stats['values'])}"
            )
        for sample, summary in entry["summaries"].items():
            lines.append(
                f"  sample {sample:<11} median {summary['median']:.6g} s  "
                f"{summary['tail']} {summary['tail_value']:.6g} s  "
                f"n {summary['n']}"
            )
        for layer, value in sorted(entry["layers"].items()):
            lines.append(f"  {layer:<44} {value:>14.6g} {units[layer]}")
        for span, own in sorted(entry["self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  self time {span:<34} {own:>14.6g} s")
    return lines


def save_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


# -- compare -----------------------------------------------------------------


def _worse_by(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the new median is worse (negative:
    better)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _all_better(base: Sequence[float], new: Sequence[float], better: str) -> bool:
    if better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def compare(
    base: Dict[str, Any], new: Dict[str, Any], benchmark: Dict[str, Any]
) -> Tuple[List[str], bool]:
    """Apply the benchmark's own bounds to two result sets.

    One row per workload x end-to-end metric: ``regression`` when the
    new median is worse than the base's by more than the bound,
    ``unresolved`` when either side's quartile spread is wider than the
    bound (unless every new run beats every base run), else ``ok``; and
    one row per workload for the fingerprints.  Returns the rows and
    whether the sets agree (no regression, no unresolved row, no
    fingerprint mismatch).  Sets from hosts that differ in Python minor
    or in C core on/off are refused.
    """
    for key in ("python_minor", "c_core"):
        if base["host"][key] != new["host"][key]:
            raise ValueError(
                f"result sets are not comparable: host {key} is "
                f"{base['host'][key]!r} vs {new['host'][key]!r}"
            )
    rows = []
    agree = True
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            rows.append(f"{name:<22} missing from the second set")
            agree = False
            continue
        for m in benchmark["end_to_end"]:
            a = base_entry["metrics"].get(m["name"])
            b = new_entry["metrics"].get(m["name"])
            if a is None or b is None:
                continue
            worse = _worse_by(a["median"], b["median"], m["better"])
            widest = max(spread(a["values"]), spread(b["values"]))
            if worse > m["bound"]:
                verdict = "regression"
            elif widest > m["bound"] and not _all_better(
                a["values"], b["values"], m["better"]
            ):
                verdict = "unresolved"
            else:
                verdict = "ok"
            agree = agree and verdict == "ok"
            rows.append(
                f"{name:<22} {m['name']:<16} {a['median']:>12.6g} -> "
                f"{b['median']:>12.6g} {m['unit']:<5} worse by "
                f"{worse:+.3f} (bound {m['bound']}, spread {widest:.3f})  "
                f"{verdict}"
            )
        same = base_entry["fingerprint"] == new_entry["fingerprint"]
        if base["seed"] == new["seed"]:
            agree = agree and same
            rows.append(
                f"{name:<22} fingerprint      "
                f"{'identical' if same else 'DIFFERENT'}"
            )
    return rows, agree
