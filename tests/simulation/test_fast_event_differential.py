"""Differential tests: ``FastEventEngine`` against ``EventEngine``.

For a grid of protocol configurations, latency/loss models and churn
scenarios both engines run the same asynchronous scenario from the same
seed.  Because the fast event engine consumes the RNG call-for-call like
the reference event engine and orders events exactly like the float
scheduler at the default tick resolution (see the ``fast_event`` module
docstring), the comparison is *exact* -- byte-identical views, matching
exchange/message counters, and an indistinguishable post-run generator
state.  Statistical assertions ride on top so a future relaxation of the
exactness contract would still be caught at the distribution level.

When a C compiler is available the whole-slice C loop is differentially
tested as well (built-in latency/loss models, ``TemporaryPartition``
windows); a custom latency model and arbitrary reachability predicates
pin the rule that sends everything else to the Python steps.

The cross-process class mirrors ``test_determinism.py`` at the process
level: the same seed must produce the same overlay fingerprint in a
fresh interpreter, so results are reproducible across process
boundaries (hash randomization, import order, accelerator cache state).
"""

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.core.config import ProtocolConfig
from repro.simulation._fastcore import load_accelerator
from repro.simulation.event_engine import EventEngine
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.network import (
    BernoulliLoss,
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.trace import Observer

N_NODES = 40
VIEW_SIZE = 6
CYCLES = 14
SEED = 7

HAVE_ACCEL = load_accelerator() is not None
BACKENDS = [False] + ([True] if HAVE_ACCEL else [])

LABELS = [
    "(rand,head,pushpull)",
    "(rand,rand,pushpull)",
    "(tail,rand,push)",
    "(head,tail,pull)",
]


def make_models(kind):
    """Fresh model instances per engine (models are stateless, but the
    differential must not depend on sharing them)."""
    if kind == "constant":
        return dict(latency=ConstantLatency(0.1))
    if kind == "uniform+loss":
        return dict(
            latency=UniformLatency(0.05, 0.4), loss=BernoulliLoss(0.1)
        )
    return dict(
        latency=ExponentialLatency(0.2), loss=BernoulliLoss(0.02)
    )


MODEL_KINDS = ["constant", "uniform+loss", "expo+loss"]


class Churn(Observer):
    """Deterministic crashes and joins at cycle boundaries; on a flat
    engine, also whether the backend rule picked the C loop each cycle."""

    def __init__(self):
        self.native = {}

    def before_cycle(self, engine):
        if engine.cycle in (4, 9) and len(engine) > 20:
            engine.crash_random_nodes(6)
        if engine.cycle in (6, 11):
            engine.add_nodes(4, contacts=engine.addresses()[:3])
        if hasattr(engine, "_backend"):
            self.native[engine.cycle] = engine._backend()[-1] is not None


def views_fingerprint(views):
    return {
        address: tuple((d.address, d.hop_count) for d in entries)
        for address, entries in views.items()
    }


def run_scenario(engine, churn=False):
    if churn:
        engine.add_observer(Churn())
    random_bootstrap(engine, N_NODES)
    engine.run(CYCLES)
    return {
        "views": views_fingerprint(engine.views()),
        "completed": engine.completed_exchanges,
        "failed": engine.failed_exchanges,
        "sent": engine.messages_sent,
        "lost": engine.messages_lost,
        "dead_links": engine.dead_link_count(),
        "cycle": engine.cycle,
        "rng_state": engine.rng.getstate(),
    }


@pytest.mark.parametrize("accelerate", BACKENDS)
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
@pytest.mark.parametrize("label", LABELS)
class TestDifferential:
    def test_byte_identical_to_event_engine(
        self, label, model_kind, accelerate
    ):
        config = ProtocolConfig.from_label(label, VIEW_SIZE)
        reference = run_scenario(
            EventEngine(config, seed=SEED, **make_models(model_kind))
        )
        fast = run_scenario(
            FastEventEngine(
                config,
                seed=SEED,
                accelerate=accelerate,
                **make_models(model_kind),
            )
        )
        # statistical agreement first (these survive an exactness
        # relaxation): comparable view fill and message accounting.
        ref_sizes = sorted(len(v) for v in reference["views"].values())
        fast_sizes = sorted(len(v) for v in fast["views"].values())
        assert fast_sizes == pytest.approx(ref_sizes, abs=2)
        assert fast["completed"] == pytest.approx(
            reference["completed"], rel=0.1
        )
        # exact agreement: byte-identical overlays and counters, and an
        # indistinguishable post-run Mersenne Twister state.
        assert fast == reference

    def test_byte_identical_under_churn(
        self, label, model_kind, accelerate
    ):
        config = ProtocolConfig.from_label(label, VIEW_SIZE)
        reference = run_scenario(
            EventEngine(config, seed=SEED, **make_models(model_kind)),
            churn=True,
        )
        fast = run_scenario(
            FastEventEngine(
                config,
                seed=SEED,
                accelerate=accelerate,
                **make_models(model_kind),
            ),
            churn=True,
        )
        assert fast == reference


class _TriangularLatency(LatencyModel):
    """A latency model outside the built-in set: sum of two uniforms.

    The C loop cannot express it, so the accelerated engine too runs
    its Python dispatch loop, sampling it like the reference does.
    """

    def sample(self, rng):
        return 0.05 + 0.1 * (rng.random() + rng.random())


@pytest.mark.parametrize("accelerate", BACKENDS)
class TestDifferentialEdgeModes:
    """Engine modes outside the main grid stay pinned to the reference."""

    def test_custom_latency_model(self, accelerate):
        config = ProtocolConfig.from_label("(rand,head,pushpull)", VIEW_SIZE)
        reference = run_scenario(
            EventEngine(config, seed=11, latency=_TriangularLatency())
        )
        fast = run_scenario(
            FastEventEngine(
                config,
                seed=11,
                accelerate=accelerate,
                latency=_TriangularLatency(),
            )
        )
        assert fast == reference

    def test_non_omniscient_peer_selection(self, accelerate):
        config = ProtocolConfig.from_label("(rand,head,push)", 5)
        results = []
        for engine in (
            EventEngine(
                config, seed=3, omniscient_peer_selection=False
            ),
            FastEventEngine(
                config,
                seed=3,
                omniscient_peer_selection=False,
                accelerate=accelerate,
            ),
        ):
            engine.add_node("a", contacts=["ghost"])
            engine.add_nodes(10, contacts=["a"])
            engine.run(8)
            results.append(
                (
                    views_fingerprint(engine.views()),
                    engine.completed_exchanges,
                    engine.failed_exchanges,
                )
            )
        assert results[0] == results[1]

    def test_growing_scenario(self, accelerate):
        # The growing overlay populates the engine *through boundary
        # observers*: the run loop must keep dispatching the timers those
        # observers create (regression: an initially empty scheduler used
        # to fire all boundaries back-to-back with zero exchanges).
        from repro.simulation.scenarios import start_growing

        config = ProtocolConfig.from_label("(rand,head,pushpull)", VIEW_SIZE)
        results = []
        for cls, kwargs in (
            (EventEngine, {}),
            (FastEventEngine, {"accelerate": accelerate}),
        ):
            engine = cls(
                config, seed=13, latency=ConstantLatency(0.1), **kwargs
            )
            start_growing(engine, target_size=40, nodes_per_cycle=5)
            engine.run(16)
            results.append(
                (
                    views_fingerprint(engine.views()),
                    len(engine),
                    engine.completed_exchanges,
                    engine.messages_sent,
                )
            )
        assert results[0][1] == 40  # the overlay actually grew
        assert results[0][2] > 0  # and genuinely gossiped while growing
        assert results[0] == results[1]

    def test_mid_run_partition_observer(self, accelerate):
        # TemporaryPartition installs engine.reachable at a cycle
        # boundary *mid-run*, and it is data to the C core: the loop
        # re-enters with the groups registered and stays native through
        # the window -- crashes and unconstrained joiners inside it
        # included -- and after the heal (regression: the accelerated
        # path once kept running without the predicate, silently
        # dropping zero cross-partition messages).
        from repro.simulation.churn import TemporaryPartition

        config = ProtocolConfig.from_label("(rand,head,pushpull)", VIEW_SIZE)
        for model_kind in ("constant", "uniform+loss"):
            results = []
            for cls, kwargs in (
                (EventEngine, {}),
                (FastEventEngine, {"accelerate": accelerate}),
            ):
                engine = cls(
                    config, seed=3, **make_models(model_kind), **kwargs
                )
                engine.add_observer(
                    TemporaryPartition(start_cycle=3, end_cycle=10)
                )
                probe = Churn()
                engine.add_observer(probe)
                random_bootstrap(engine, 30)
                engine.run(14)
                results.append(
                    (
                        views_fingerprint(engine.views()),
                        engine.completed_exchanges,
                        engine.failed_exchanges,
                        engine.messages_sent,
                        engine.messages_lost,
                        engine.rng.getstate(),
                    )
                )
            assert results[0][4] > 0  # the partition dropped traffic
            assert results[0] == results[1]
            assert probe.native == dict.fromkeys(range(1, 15), accelerate)

    def test_reachability_predicate(self, accelerate):
        # an arbitrary callable: the flat engine runs its Python steps
        config = ProtocolConfig.from_label("(rand,head,pushpull)", VIEW_SIZE)
        results = []
        for cls, kwargs in (
            (EventEngine, {}),
            (FastEventEngine, {"accelerate": accelerate}),
        ):
            engine = cls(
                config, seed=11, latency=ConstantLatency(0.1), **kwargs
            )
            random_bootstrap(engine, 30)
            engine.reachable = lambda src, dst: (src + dst) % 5 != 0
            engine.run(10)
            results.append(
                (
                    views_fingerprint(engine.views()),
                    engine.completed_exchanges,
                    engine.messages_sent,
                    engine.messages_lost,
                )
            )
        assert results[0] == results[1]


@pytest.mark.skipif(not HAVE_ACCEL, reason="no C compiler available")
class TestBackendEquivalence:
    """The C paths and the pure-Python path are interchangeable."""

    @pytest.mark.parametrize("model_kind", MODEL_KINDS)
    def test_backends_byte_identical(self, model_kind):
        config = ProtocolConfig.from_label("(rand,rand,pushpull)", VIEW_SIZE)
        results = [
            run_scenario(
                FastEventEngine(
                    config,
                    seed=21,
                    accelerate=accelerate,
                    **make_models(model_kind),
                ),
                churn=True,
            )
            for accelerate in (True, False)
        ]
        assert results[0] == results[1]

    def test_interleaved_engines_do_not_interfere(self):
        # The C core's registered buffers are process-global; engines
        # must re-register per scheduling slice, so two accelerated
        # engines advanced alternately produce exactly what each
        # produces when run alone.
        def build(seed):
            engine = FastEventEngine(
                ProtocolConfig.from_label("(rand,head,pushpull)", VIEW_SIZE),
                seed=seed,
                latency=ConstantLatency(0.1),
            )
            random_bootstrap(engine, N_NODES)
            return engine

        solo = {}
        for seed in (1, 2):
            engine = build(seed)
            engine.run(CYCLES)
            solo[seed] = views_fingerprint(engine.views())
        first, second = build(1), build(2)
        for _ in range(CYCLES):
            first.run_cycle()
            second.run_cycle()
        assert views_fingerprint(first.views()) == solo[1]
        assert views_fingerprint(second.views()) == solo[2]


_CHILD_SCRIPT = """\
import hashlib
import sys

from repro.core.config import ProtocolConfig
from repro.simulation.fast_event import FastEventEngine
from repro.simulation.network import BernoulliLoss, UniformLatency
from repro.simulation.scenarios import random_bootstrap

engine = FastEventEngine(
    ProtocolConfig.from_label("(rand,head,pushpull)", 6),
    seed=int(sys.argv[1]),
    latency=UniformLatency(0.05, 0.3),
    loss=BernoulliLoss(0.05),
    accelerate={accelerate},
)
random_bootstrap(engine, 40)
engine.run(12)
digest = hashlib.sha256()
for address, entries in engine.views().items():
    digest.update(repr((address, tuple(
        (d.address, d.hop_count) for d in entries
    ))).encode())
digest.update(repr((engine.completed_exchanges, engine.failed_exchanges,
                    engine.messages_sent, engine.messages_lost)).encode())
print(digest.hexdigest())
"""


def _child_fingerprint(seed, accelerate):
    """The overlay fingerprint as computed by a fresh interpreter."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD_SCRIPT.format(accelerate=accelerate),
            str(seed),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize("accelerate", BACKENDS)
class TestCrossProcessDeterminism:
    """Same seed => identical overlays across interpreter processes."""

    def _local_fingerprint(self, seed, accelerate):
        engine = FastEventEngine(
            ProtocolConfig.from_label("(rand,head,pushpull)", 6),
            seed=seed,
            latency=UniformLatency(0.05, 0.3),
            loss=BernoulliLoss(0.05),
            accelerate=accelerate,
        )
        random_bootstrap(engine, 40)
        engine.run(12)
        digest = hashlib.sha256()
        for address, entries in engine.views().items():
            digest.update(
                repr(
                    (
                        address,
                        tuple(
                            (d.address, d.hop_count) for d in entries
                        ),
                    )
                ).encode()
            )
        digest.update(
            repr(
                (
                    engine.completed_exchanges,
                    engine.failed_exchanges,
                    engine.messages_sent,
                    engine.messages_lost,
                )
            ).encode()
        )
        return digest.hexdigest()

    def test_subprocess_reproduces_fingerprint(self, accelerate):
        assert self._local_fingerprint(42, accelerate) == _child_fingerprint(
            42, accelerate
        )

    def test_different_seeds_diverge(self, accelerate):
        assert self._local_fingerprint(1, accelerate) != self._local_fingerprint(
            2, accelerate
        )
