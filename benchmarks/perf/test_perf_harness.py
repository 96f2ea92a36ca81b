"""The performance ledger's own tests (collected by the tier-1 run).

Workloads are built at tiny sizes through the harness's Python API --
the command line has no size knob, so a ledger entry can only ever be
made at the fixed sizes.
"""

import copy
import json
import math
import os
import re
import sys
from multiprocessing import shared_memory

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfkit  # noqa: E402
import perfledger  # noqa: E402
import perfloads  # noqa: E402

TINY = perfloads.Sizes(
    large_nodes=300,
    fast_cycles=3,
    event_cycles=3,
    churn_per_cycle=2,
    sharded_cycles=3,
    cell_nodes=200,
    cell_cycles=6,
    cell_failure_at=4,
    cell_metrics_every=2,
    live_daemons=8,
    live_rounds=3,
    live_round_trips=20,
    live_draw_seconds=0.05,
    live_window_seconds=0.01,
    live_draws=500,
    live_slices=2,
    live_warm_seconds=0.01,
    micro_loops=50,
    gate_nodes=100,
    gate_cycles=2,
    sample_nodes=50,
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
EVERYWHERE = {"setup_s", "wall_s", "failed_share", "peak_rss_mb"}
DEFINED = {
    "fast_static_100k": {"cycle_s", "exchanges_per_s", "digest_s"},
    "event_churn_100k": {"cycle_s", "exchanges_per_s"},
    "sharded_static_100k": {"cycle_s", "exchanges_per_s"},
    "plan_cell_10k": {"cell_s"},
    "live_udp_64": {
        "cycle_s", "exchanges_per_s", "rtt_p50_us", "getpeer_per_s"
    },
}

BENCHMARK = perfledger.load_benchmark()


def tiny_run(name, seed=1, trace=False, **kwargs):
    return perfledger.run_workload(name, seed, 0, trace, sizes=TINY, **kwargs)


@pytest.fixture(scope="module")
def traced_runs():
    """One traced run (an untraced pass, a traced pass, the extras) of
    every workload, told that loading the program took 0.25 s."""
    return {
        name: tiny_run(name, trace=True, program_load=lambda: (0.25, 0.001))
        for name in perfloads.WORKLOADS
    }


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        perfloads.WORKLOADS
    )
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_every_metric_name_is_printed_by_a_run(traced_runs):
    defined_somewhere = set()
    measured_somewhere = set()
    for name, run in traced_runs.items():
        line = json.loads(perfledger.contract_line(run, BENCHMARK))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [
            m["name"] for m in BENCHMARK["per_layer"]
        ]
        measured_somewhere.update(run["layers"])
        untraced = dict(run, trace=False)
        line = json.loads(perfledger.contract_line(untraced, BENCHMARK))
        assert line["correct"] and line["attempted"] >= 1
        assert list(line["metrics"]) == [
            m["name"] for m in BENCHMARK["end_to_end"]
        ]
        for m in BENCHMARK["end_to_end"]:
            entry = line["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert math.isfinite(entry["value"]) and entry["value"] > 0
        defined_somewhere.update(run["passes"][0]["metrics"])
        assert run["passes"][0]["metrics"]["setup_s"] > 0.25
        assert set(run["passes"][0]["metrics"]) == EVERYWHERE | DEFINED[name]
        assert "peak_rss_mb" not in run["passes"][1]["metrics"]
    # No name in BENCHMARK.json is filler everywhere.
    assert defined_somewhere == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert measured_somewhere == {m["name"] for m in BENCHMARK["per_layer"]}


def test_traced_run_keeps_spans_of_both_phases(traced_runs):
    spans = traced_runs["fast_static_100k"]["spans"]
    names = {span["name"] for span in spans}
    assert {"pass", "setup", "simulation.views", "gate.cycle"} <= names
    assert all(span["end"] >= span["start"] for span in spans)
    # The untraced pass (pass 0) recorded nothing.
    assert {span["pass"] for span in spans if span["name"] == "pass"} == {1}


def test_span_self_time_is_duration_minus_children():
    spans = [
        {"name": "pass", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "cycles", "start": 1.0, "end": 3.0, "parent": 0},
        {"name": "digest", "start": 4.0, "end": 8.0, "parent": 0},
        {"name": "views", "start": 5.0, "end": 6.0, "parent": 2},
    ]
    assert perfkit.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert perfkit.self_time_by_name(spans)["digest"] == 3.0

    tracer = perfkit.Tracer("w", enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner") as inner:
            pass
    assert [s["parent"] for s in tracer.spans] == [None, 0]
    assert inner.seconds == tracer.spans[1]["end"] - tracer.spans[1]["start"]
    own = perfkit.self_times(tracer.spans)
    assert own[0] == pytest.approx(
        tracer.spans[0]["end"] - tracer.spans[0]["start"] - inner.seconds
    )


def test_tail_needs_ten_samples_beyond_it():
    assert perfkit.tail(range(16)) == ("max", 15)
    assert perfkit.tail(range(1, 41)) == ("p75", 30)
    assert perfkit.tail(range(1, 1001)) == ("p99", 990)


def test_fingerprint_follows_the_seed(traced_runs):
    again = tiny_run("fast_static_100k", seed=1)
    other = tiny_run("fast_static_100k", seed=2)
    assert again["fingerprint"] == traced_runs["fast_static_100k"]["fingerprint"]
    assert other["fingerprint"] != again["fingerprint"]


def test_corrupted_fingerprint_fails_the_run(traced_runs):
    good = traced_runs["event_churn_100k"]["fingerprint"]
    tiny_run("event_churn_100k", golden=good)
    with pytest.raises(perfloads.CheckFailed, match="golden"):
        tiny_run("event_churn_100k", golden="0" * 64)


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
)
def test_leaked_segment_fails_the_run(monkeypatch):
    leaked = []

    class Leaky(perfloads.FastStatic):
        def teardown(self, ctx, state):
            segment = shared_memory.SharedMemory(create=True, size=64)
            leaked.append(segment)
            segment.close()

    monkeypatch.setitem(perfloads.WORKLOADS, "fast_static_100k", Leaky())
    try:
        with pytest.raises(perfloads.CheckFailed, match="/dev/shm gained"):
            tiny_run("fast_static_100k")
    finally:
        for segment in leaked:
            segment.unlink()


def test_compare_applies_the_bounds(traced_runs):
    host = perfkit.host_block(c_core=True)
    # Three "runs" of every workload: the same one, so no spread.
    base = perfledger.build_result_set(
        list(traced_runs.values()) * 3, host, 1, BENCHMARK
    )
    cell = base["workloads"]["plan_cell_10k"]["metrics"]
    assert set(cell) == {
        "setup_s", "wall_s", "cell_s", "failed_share", "peak_rss_mb"
    }
    assert len(cell["cell_s"]["values"]) == 3
    rows, agree = perfledger.compare(base, base, BENCHMARK)
    assert agree and any("fingerprint" in row for row in rows)

    slower = copy.deepcopy(base)
    stats = slower["workloads"]["plan_cell_10k"]["metrics"]["cell_s"]
    stats["values"] = [2 * v for v in stats["values"]]
    stats["median"] *= 2
    rows, agree = perfledger.compare(base, slower, BENCHMARK)
    assert not agree
    assert [r for r in rows if "regression" in r and "cell_s" in r]

    noisy = copy.deepcopy(base)
    stats = noisy["workloads"]["plan_cell_10k"]["metrics"]["cell_s"]
    stats["values"] = [stats["median"] * f for f in (0.7, 1.0, 1.3)]
    rows, agree = perfledger.compare(base, noisy, BENCHMARK)
    assert not agree
    assert [r for r in rows if "unresolved" in r and "cell_s" in r]

    other_python = copy.deepcopy(base)
    other_python["host"]["python_minor"] = "2.7"
    with pytest.raises(ValueError, match="python_minor"):
        perfledger.compare(base, other_python, BENCHMARK)
