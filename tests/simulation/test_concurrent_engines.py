"""Concurrent engines: per-engine C state, no interference.

Every flat-array engine owns its C-side context (the resident MT19937
stream, the buffer registrations, the scratch), and ctypes releases the
GIL while a C loop runs -- so default engines on separate threads
genuinely execute at the same time.  These tests pin the contract:
threaded concurrent runs are byte-identical to the same runs executed
one after the other.  (With the state in C file-scope globals, as it
once was, the threads corrupt each other.)
"""

import threading

import pytest

from repro.core.config import ProtocolConfig
from repro.simulation._fastcore import load_accelerator
from repro.simulation.fast import FastCycleEngine
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.scenarios import random_bootstrap
from repro.workloads.runtime import views_digest

HAVE_ACCEL = load_accelerator() is not None

N_NODES = 2000  # a cycle is milliseconds of GIL-free C: the runs overlap
VIEW_SIZE = 8
CYCLES = 25
SEEDS = (17, 91, 5, 64)  # more threads than the CI runners have cores


def run_engine(engine_class, seed):
    config = ProtocolConfig.from_label("(rand,rand,pushpull)", VIEW_SIZE)
    engine = engine_class(config, seed=seed)
    assert engine.accelerated
    random_bootstrap(engine, N_NODES)
    engine.run(CYCLES)
    return (
        views_digest(engine),
        engine.completed_exchanges,
        engine.failed_exchanges,
        engine.rng.getstate(),
    )


@pytest.mark.skipif(not HAVE_ACCEL, reason="no C compiler available")
@pytest.mark.parametrize("engine_class", (FastEventEngine, FastCycleEngine))
def test_threaded_runs_match_serial_runs(engine_class):
    serial = [run_engine(engine_class, seed) for seed in SEEDS]

    threaded = [None] * len(SEEDS)
    errors = []
    start = threading.Barrier(len(SEEDS))

    def worker(index, seed):
        try:
            start.wait(timeout=60)
            threaded[index] = run_engine(engine_class, seed)
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, seed))
        for i, seed in enumerate(SEEDS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert threaded == serial
    # distinct seeds genuinely produced distinct overlays
    assert len({digest for digest, *_ in serial}) == len(SEEDS)
