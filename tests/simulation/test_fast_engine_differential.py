"""Differential tests: ``FastCycleEngine`` against the reference engine.

For a grid of protocol configurations (propagation x view selection x
peer selection x healer/swapper parameters) both engines run the same
scenario from the same seed.  Because the fast engine preserves the
reference engine's RNG consumption order (see the ``fast`` module
docstring), the comparison is *exact* -- byte-identical views -- and the
statistical properties the paper's evaluation rests on (degree
distributions, dead-link decay, connectivity) are asserted on top, so a
future relaxation of the exactness contract would still be caught at the
distribution level.

When a C compiler is available the accelerated backend is differentially
tested as well (against both the reference engine and the pure-Python
fast path).
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.graph.components import component_sizes
from repro.graph.snapshot import GraphSnapshot
from repro.simulation._fastcore import load_accelerator
from repro.simulation.churn import TemporaryPartition
from repro.simulation.engine import CycleEngine
from repro.simulation.fast import FastCycleEngine
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.trace import Observer

N_NODES = 60
VIEW_SIZE = 7
CYCLES = 25
CRASHES = 24
HEAL_CYCLES = 12
SEED = 1234

HAVE_ACCEL = load_accelerator() is not None

GRID = [
    (propagation, view_selection, peer_selection, h, s)
    for propagation in ("pushpull", "push")
    for view_selection in ("head", "rand")
    for peer_selection in ("rand", "tail")
    for (h, s) in ((0, 0), (1, 1), (3, 3))
]

BACKENDS = [False] + ([True] if HAVE_ACCEL else [])


def grid_config(propagation, view_selection, peer_selection, h, s):
    label = f"({peer_selection},{view_selection},{propagation})"
    return ProtocolConfig.from_label(label, VIEW_SIZE).replace(
        healer=h, swapper=s
    )


def run_scenario(engine):
    """Bootstrap, converge, crash 40%, heal -- collecting checkpoints.

    Checkpoints are fingerprinted immediately: the reference engine's
    ``views()`` exposes live descriptor objects whose hop counts keep
    mutating as the simulation continues.
    """
    random_bootstrap(engine, N_NODES)
    engine.run(CYCLES)
    converged = views_fingerprint(engine.views())
    engine.crash_random_nodes(CRASHES)
    decay = []
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


def views_fingerprint(views):
    return {
        address: tuple((d.address, d.hop_count) for d in entries)
        for address, entries in views.items()
    }


def snapshot_of(fingerprint):
    return GraphSnapshot.from_views(
        {
            address: [entry_address for entry_address, _ in entries]
            for address, entries in fingerprint.items()
        }
    )


def degree_histogram(fingerprint):
    return sorted(snapshot_of(fingerprint).degrees().tolist())


@pytest.mark.parametrize("accelerate", BACKENDS)
@pytest.mark.parametrize(
    "propagation,view_selection,peer_selection,h,s", GRID
)
class TestDifferential:
    def _results(
        self, propagation, view_selection, peer_selection, h, s, accelerate
    ):
        config = grid_config(
            propagation, view_selection, peer_selection, h, s
        )
        reference = run_scenario(CycleEngine(config, seed=SEED))
        fast = run_scenario(
            FastCycleEngine(config, seed=SEED, accelerate=accelerate)
        )
        return reference, fast

    def test_statistical_and_exact_agreement(
        self, propagation, view_selection, peer_selection, h, s, accelerate
    ):
        reference, fast = self._results(
            propagation, view_selection, peer_selection, h, s, accelerate
        )
        # -- statistical agreement (would survive an exactness relaxation)
        ref_degrees = degree_histogram(reference["converged"])
        fast_degrees = degree_histogram(fast["converged"])
        ref_mean = sum(ref_degrees) / len(ref_degrees)
        fast_mean = sum(fast_degrees) / len(fast_degrees)
        assert fast_mean == pytest.approx(ref_mean, rel=0.15)
        # dead-link decay trajectories match within tolerance
        for ref_count, fast_count in zip(
            reference["decay"], fast["decay"]
        ):
            assert fast_count == pytest.approx(ref_count, abs=10)
        # connectivity structure agrees
        ref_components = component_sizes(snapshot_of(reference["final"]))
        fast_components = component_sizes(snapshot_of(fast["final"]))
        assert max(fast_components) == pytest.approx(
            max(ref_components), abs=3
        )
        # -- exact agreement: the RNG consumption order is preserved, so
        # the overlays must be byte-identical, not merely similar.
        assert fast["converged"] == reference["converged"]
        assert fast["final"] == reference["final"]
        assert fast["decay"] == reference["decay"]
        assert fast["completed"] == reference["completed"]
        assert fast["failed"] == reference["failed"]


@pytest.mark.skipif(not HAVE_ACCEL, reason="no C compiler available")
class TestBackendEquivalence:
    """The C core and the pure-Python path are interchangeable."""

    @pytest.mark.parametrize(
        "label,h,s",
        [
            ("(rand,head,pushpull)", 0, 0),
            ("(rand,rand,pushpull)", 1, 1),
            ("(tail,rand,push)", 3, 3),
            ("(head,tail,pull)", 0, 3),
        ],
    )
    def test_backends_byte_identical(self, label, h, s):
        config = ProtocolConfig.from_label(label, VIEW_SIZE).replace(
            healer=h, swapper=s
        )
        results = [
            run_scenario(
                FastCycleEngine(config, seed=7, accelerate=accelerate)
            )
            for accelerate in (True, False)
        ]
        assert results[0] == results[1]

    def test_rng_state_matches_reference_after_cycles(self):
        # The C core reimplements CPython's MT19937 consumers; after a run
        # the generator state must be indistinguishable from the reference
        # engine's, so mixed Python/C RNG usage stays seamless.
        config = ProtocolConfig.from_label("(rand,rand,pushpull)", 6)
        engines = [
            CycleEngine(config, seed=99),
            FastCycleEngine(config, seed=99, accelerate=True),
        ]
        for engine in engines:
            random_bootstrap(engine, 40)
            engine.run(10)
        assert engines[0].rng.getstate() == engines[1].rng.getstate()


class TestDifferentialEdgeModes:
    """Engine modes outside the main grid stay pinned to the reference."""

    def test_keep_self_descriptors(self):
        config = ProtocolConfig.from_label("(rand,head,pushpull)", 6).replace(
            keep_self_descriptors=True, healer=1, swapper=1
        )
        reference = run_scenario(CycleEngine(config, seed=5))
        fast = run_scenario(FastCycleEngine(config, seed=5))
        assert fast == reference

    def test_non_omniscient_peer_selection(self):
        config = ProtocolConfig.from_label("(rand,head,push)", 5)
        results = []
        for cls in (CycleEngine, FastCycleEngine):
            engine = cls(config, seed=3, omniscient_peer_selection=False)
            results.append(run_scenario(engine))
        assert results[0] == results[1]

    def test_reachability_predicate(self):
        # an arbitrary callable: the flat engine runs its Python steps
        config = ProtocolConfig.from_label("(rand,head,pushpull)", 6)
        results = []
        for cls in (CycleEngine, FastCycleEngine):
            engine = cls(config, seed=11)
            random_bootstrap(engine, 40)
            engine.reachable = lambda src, dst: (src + dst) % 5 != 0
            engine.run(12)
            results.append(
                (
                    views_fingerprint(engine.views()),
                    engine.completed_exchanges,
                    engine.failed_exchanges,
                )
            )
        assert results[0] == results[1]


class WindowChurn(Observer):
    """Crashes and joins inside the partition window; on a flat engine,
    also whether the backend rule picked the C entry point each cycle."""

    def __init__(self):
        self.native = {}

    def before_cycle(self, engine):
        if engine.cycle == 4:
            engine.crash_random_nodes(6)
        if engine.cycle in (5, 6):
            engine.add_nodes(3, contacts=engine.addresses()[:3])
        if hasattr(engine, "_backend"):
            self.native[engine.cycle] = engine._backend()[-1] is not None


@pytest.mark.parametrize("accelerate", BACKENDS)
@pytest.mark.parametrize(
    "label", ("(rand,head,pushpull)", "(tail,rand,push)", "(rand,rand,pull)")
)
def test_temporary_partition_window(label, accelerate):
    # A TemporaryPartition is data to the C core: the window -- with
    # crashes and unconstrained joiners inside it -- and the cycles after
    # the heal run fc_run_cycle, byte-identical to the reference.
    config = ProtocolConfig.from_label(label, VIEW_SIZE)
    results = []
    for engine in (
        CycleEngine(config, seed=SEED),
        FastCycleEngine(config, seed=SEED, accelerate=accelerate),
    ):
        probe = WindowChurn()
        engine.add_observer(TemporaryPartition(start_cycle=3, end_cycle=8))
        engine.add_observer(probe)
        random_bootstrap(engine, N_NODES)
        engine.run(12)
        results.append(
            (
                views_fingerprint(engine.views()),
                engine.completed_exchanges,
                engine.failed_exchanges,
                engine.rng.getstate(),
            )
        )
    assert results[0][2] > 0  # the partition genuinely dropped traffic
    assert results[0] == results[1]
    assert probe.native == dict.fromkeys(range(12), accelerate)
