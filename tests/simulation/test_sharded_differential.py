"""``fast-sharded`` shard resolution and process placement.

Byte identity across shard counts, backends and placements is pinned by
the conformance suite (``test_conformance.py``); this module holds what
is not an identity: how ``--shards`` / ``$REPRO_SHARDS`` resolve, and
that without a C core no K starts a process or maps shared memory.
"""

import multiprocessing.process
import os
from multiprocessing import shared_memory

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.experiments.common import make_engine
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.sharded import ShardedCycleEngine, resolve_shards
from repro.workloads import views_digest

CONFIG = ProtocolConfig.from_label("(rand,rand,pushpull);h1s1", 7)


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
    digests = []
    for shards in (1, 2):
        engine = ShardedCycleEngine(
            CONFIG, seed=4242, accelerate=False, shards=shards
        )
        random_bootstrap(engine, 48)
        engine.run(12)
        engine.crash_random_nodes(19)
        engine.run(8)
        digests.append(views_digest(engine))
        engine.close()
    assert digests[0] == digests[1]
    assert started == []
    assert segments == []


class TestShardResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) is None

    def test_zero_means_one_per_core(self, monkeypatch):
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
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        with pytest.raises(ConfigurationError, match="fast-sharded"):
            make_engine(CONFIG, seed=1, engine="fast", shards=2)
        engine = make_engine(CONFIG, seed=1, engine="fast-sharded", shards=2)
        try:
            assert engine.shards == 2
        finally:
            engine.close()
