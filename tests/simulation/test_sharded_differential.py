"""Differential tests: ``ShardedCycleEngine`` shard-count invariance.

The sharded engine is its own execution family (synchronous BSP rounds,
see the ``sharded`` module docstring), so it is not compared against
``CycleEngine``.  Its contract is *K-invariance*: for a fixed seed the
results -- views, hop counts, exchange counters -- are byte-identical
for every shard count, every backend (pure Python and C), and every
process placement (in-process vs the C phases in shared-memory workers).
These tests pin that contract across a protocol grid, under churn, in
non-omniscient mode, and across independent OS processes.
"""

import hashlib
import multiprocessing.process
import subprocess
import sys
from multiprocessing import shared_memory

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.graph.components import component_sizes
from repro.graph.snapshot import GraphSnapshot
from repro.simulation._fastcore import load_accelerator
from repro.simulation.churn import TemporaryPartition
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.sharded import ShardedCycleEngine, resolve_shards
from repro.simulation.trace import Observer

N_NODES = 48
VIEW_SIZE = 7
CYCLES = 12
CRASHES = 19
HEAL_CYCLES = 8
SEED = 4242

HAVE_ACCEL = load_accelerator() is not None

BACKENDS = [
    False,
    pytest.param(
        True, marks=pytest.mark.skipif(not HAVE_ACCEL, reason="no C compiler")
    ),
]

LABELS = [
    ("(rand,rand,pushpull)", 0, 0),
    ("(rand,head,pushpull)", 1, 1),
    ("(tail,rand,push)", 3, 3),
    ("(head,head,pull)", 0, 3),
]


def grid_config(label, h, s):
    return ProtocolConfig.from_label(label, VIEW_SIZE).replace(
        healer=h, swapper=s
    )


def run_scenario(engine, churn=True):
    """Bootstrap, converge, crash 40%, heal -- collecting checkpoints."""
    try:
        random_bootstrap(engine, N_NODES)
        engine.run(CYCLES)
        converged = views_fingerprint(engine.views())
        decay = []
        if churn:
            engine.crash_random_nodes(CRASHES)
            for _ in range(HEAL_CYCLES):
                engine.run_cycle()
                decay.append(engine.dead_link_count())
        return {
            "converged": converged,
            "final": views_fingerprint(engine.views()),
            "decay": decay,
            "completed": engine.completed_exchanges,
            "failed": engine.failed_exchanges,
        }
    finally:
        engine.close()


def views_fingerprint(views):
    return {
        address: tuple((d.address, d.hop_count) for d in entries)
        for address, entries in views.items()
    }


def result_digest(result):
    payload = repr(
        (
            sorted(result["converged"].items()),
            sorted(result["final"].items()),
            result["decay"],
            result["completed"],
            result["failed"],
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def snapshot_of(fingerprint):
    return GraphSnapshot.from_views(
        {
            address: [entry_address for entry_address, _ in entries]
            for address, entries in fingerprint.items()
        }
    )


@pytest.mark.parametrize("accelerate", BACKENDS)
@pytest.mark.parametrize("label,h,s", LABELS)
class TestShardCountInvariance:
    """K in {1, 2, 4} and both backends agree byte-for-byte."""

    def test_sharded_matches_serial(self, label, h, s, accelerate):
        config = grid_config(label, h, s)
        serial = run_scenario(
            ShardedCycleEngine(
                config, seed=SEED, accelerate=accelerate, shards=1
            )
        )
        for shards in (2, 4):
            sharded = run_scenario(
                ShardedCycleEngine(
                    config, seed=SEED, accelerate=accelerate, shards=shards
                )
            )
            assert sharded["converged"] == serial["converged"]
            assert sharded["final"] == serial["final"]
            assert sharded["decay"] == serial["decay"]
            assert sharded["completed"] == serial["completed"]
            assert sharded["failed"] == serial["failed"]
        # the overlay the rounds build must still be a healthy gossip
        # overlay -- one dominant connected component over live nodes.
        components = component_sizes(snapshot_of(serial["converged"]))
        assert max(components) >= N_NODES - 2


@pytest.mark.skipif(not HAVE_ACCEL, reason="no C compiler available")
class TestBackendEquivalence:
    """The C shard kernel and the Python phases are interchangeable."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_backends_byte_identical(self, shards):
        config = grid_config("(rand,rand,pushpull)", 1, 1)
        results = [
            run_scenario(
                ShardedCycleEngine(
                    config, seed=7, accelerate=accelerate, shards=shards
                )
            )
            for accelerate in (True, False)
        ]
        assert results[0] == results[1]


class TestEdgeModes:
    @pytest.mark.parametrize("accelerate", BACKENDS)
    def test_non_omniscient_matches_across_shards(self, accelerate):
        config = grid_config("(rand,head,push)", 0, 0)
        results = [
            run_scenario(
                ShardedCycleEngine(
                    config,
                    seed=3,
                    omniscient_peer_selection=False,
                    accelerate=accelerate,
                    shards=shards,
                )
            )
            for shards in (1, 2)
        ]
        assert results[0] == results[1]
        assert results[0]["failed"] > 0  # churn phase exercises dead peers

    def test_reachability_predicate_matches_across_shards(self):
        # An arbitrary callable takes the Python steps, in this process;
        # results must still be independent of the configured shard count.
        config = grid_config("(rand,head,pushpull)", 0, 0)
        results = []
        for shards in (1, 2):
            engine = ShardedCycleEngine(
                config, seed=11, accelerate=False, shards=shards
            )
            try:
                random_bootstrap(engine, 40)
                engine.reachable = lambda src, dst: (src + dst) % 5 != 0
                engine.run(8)
                results.append(
                    (
                        views_fingerprint(engine.views()),
                        engine.completed_exchanges,
                        engine.failed_exchanges,
                    )
                )
            finally:
                engine.close()
        assert results[0] == results[1]
        assert results[0][2] > 0


class WindowChurn(Observer):
    """Crashes and joins inside the partition window, and whether the
    backend rule picked the C phases each round."""

    def __init__(self):
        self.native = {}

    def before_cycle(self, engine):
        if engine.cycle == 4:
            engine.crash_random_nodes(6)
        if engine.cycle in (5, 6):
            engine.add_nodes(3, contacts=engine.addresses()[:3])
        self.native[engine.cycle] = engine._backend()[-1] is not None


def run_partition_window(engine):
    py_rounds = []
    round_py = engine._run_round_py
    engine._run_round_py = lambda rnd: py_rounds.append(rnd) or round_py(rnd)
    probe = WindowChurn()
    engine.add_observer(TemporaryPartition(start_cycle=3, end_cycle=8))
    engine.add_observer(probe)
    try:
        random_bootstrap(engine, N_NODES)
        engine.run(12)
        result = (
            views_fingerprint(engine.views()),
            engine.completed_exchanges,
            engine.failed_exchanges,
            engine.rng.getstate(),
        )
    finally:
        engine.close()
    return result, probe.native, py_rounds


@pytest.mark.parametrize(
    "label", ("(rand,head,pushpull)", "(tail,rand,push)", "(rand,rand,pull)")
)
def test_temporary_partition_window(label):
    # A TemporaryPartition is data to the C phases: the window -- with
    # crashes and unconstrained joiners inside it -- and the rounds
    # after the heal stay in C and on K shards, byte-identical to the
    # family reference (the Python rounds calling the predicate).
    config = grid_config(label, 0, 0)
    reference, native, py_rounds = run_partition_window(
        ShardedCycleEngine(config, seed=SEED, accelerate=False, shards=1)
    )
    assert reference[2] > 0  # the partition genuinely dropped traffic
    assert not any(native.values())
    assert py_rounds == list(range(12))
    for shards in (1, 2, 3) if HAVE_ACCEL else ():
        result, native, py_rounds = run_partition_window(
            ShardedCycleEngine(
                config, seed=SEED, accelerate=True, shards=shards
            )
        )
        assert result == reference
        assert native == dict.fromkeys(range(12), True)
        assert py_rounds == []
    # without a C core every round, window or not, runs the Python steps
    # in this process: still the same overlay
    result, _, py_rounds = run_partition_window(
        ShardedCycleEngine(config, seed=SEED, accelerate=False, shards=2)
    )
    assert result == reference
    assert py_rounds == list(range(12))


def test_without_c_core_shards_run_in_process(monkeypatch):
    # Workers only ever run the C phases: without a C core, K > 1 spawns
    # no process and maps no shared memory, with the K = 1 results.
    started, segments = [], []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess,
        "start",
        lambda proc: started.append(proc) or start(proc),
    )
    create = shared_memory.SharedMemory.__init__
    monkeypatch.setattr(
        shared_memory.SharedMemory,
        "__init__",
        lambda shm, *args, **kwargs: (
            segments.append(kwargs) or create(shm, *args, **kwargs)
        ),
    )
    config = grid_config("(rand,rand,pushpull)", 1, 1)
    digests = [
        result_digest(
            run_scenario(
                ShardedCycleEngine(
                    config, seed=SEED, accelerate=False, shards=shards
                )
            )
        )
        for shards in (1, 2)
    ]
    assert digests[0] == digests[1]
    assert started == []
    assert segments == []


_SUBPROCESS_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_sharded_differential import (
    ShardedCycleEngine, grid_config, result_digest, run_scenario,
)
config = grid_config("(rand,rand,pushpull)", 1, 1)
engine = ShardedCycleEngine(
    config, seed=99, accelerate={accelerate!r}, shards=2
)
print(result_digest(run_scenario(engine)))
"""


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("accelerate", BACKENDS)
    def test_same_seed_same_digest_in_fresh_process(self, accelerate):
        import repro
        import pathlib

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        tests = str(pathlib.Path(__file__).resolve().parent)
        config = grid_config("(rand,rand,pushpull)", 1, 1)
        local = result_digest(
            run_scenario(
                ShardedCycleEngine(
                    config, seed=99, accelerate=accelerate, shards=2
                )
            )
        )
        script = _SUBPROCESS_SCRIPT.format(
            src=src, tests=tests, accelerate=accelerate
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == local


class TestRuntimeIntegration:
    """``prepare_run`` drives the sharded engine like any cycle engine."""

    def test_spec_run_is_shard_count_invariant(self):
        from repro.workloads import CatastrophicFailure, ScenarioSpec, prepare_run

        config = ProtocolConfig.from_label("(rand,head,pushpull)", 8)
        spec = ScenarioSpec(
            cycles=10,
            events=(CatastrophicFailure(at_cycle=5, fraction=0.3),),
        )
        digests = []
        counters = []
        for shards in (1, 2):
            runtime = prepare_run(
                spec,
                config,
                n_nodes=40,
                seed=5,
                engine="fast-sharded",
                shards=shards,
            )
            try:
                runtime.run_to_end()
                digests.append(runtime.views_digest())
                counters.append(
                    (
                        runtime.engine.completed_exchanges,
                        runtime.engine.failed_exchanges,
                    )
                )
            finally:
                runtime.engine.close()
        assert digests[0] == digests[1]
        assert counters[0] == counters[1]


class TestShardResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) is None

    def test_zero_means_one_per_core(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(0) == (os.cpu_count() or 1)

    def test_env_var_and_explicit_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert resolve_shards(None) == 3
        assert resolve_shards(5) == 5

    @pytest.mark.parametrize("bad", [-1, True, 2.5, "4"])
    def test_rejects_invalid(self, bad, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        with pytest.raises(ConfigurationError):
            resolve_shards(bad)

    def test_rejects_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "many")
        with pytest.raises(ConfigurationError):
            resolve_shards(None)

    def test_make_engine_rejects_shards_on_other_engines(self, monkeypatch):
        import random

        from repro.experiments.common import make_engine

        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        config = grid_config("(rand,rand,pushpull)", 0, 0)
        with pytest.raises(ConfigurationError, match="fast-sharded"):
            make_engine(config, seed=1, engine="fast", shards=2)
        engine = make_engine(config, seed=1, engine="fast-sharded", shards=2)
        try:
            assert engine.shards == 2
        finally:
            engine.close()
