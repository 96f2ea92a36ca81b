"""Engine conformance: every executor equals its family reference, byte
for byte.

The rows are the engine x feature table itself: every
:data:`repro.experiments.common.ENGINES` entry, on both backends where it
runs the flat-array kernel (the C leg is skipped without a compiler),
and ``fast-sharded`` at every K in :data:`SHARD_COUNTS`.  Each row runs
a scenario corpus through ``make_engine`` + ``compile_scenario`` and
must equal the run of its family's reference (:data:`REFERENCES`):

- the overlay digest after every cycle;
- the exchange counters, and the message counters on the event family;
- :data:`DRAWS` ``get_peer()`` draws per live node through
  :func:`repro.services.sampling_services`, the only call the services
  make;
- then ``rng.getstate()``, where the family shares one MT stream.

Rows on the flat-array kernel also record, before every cycle, whether
the backend rule picked C, checked against one test-side rule: an open
attack window, a ``;v`` protocol or a Python callable deciding per
message means the Python steps; anything else means C.  Rows that put
the C phases on K > 1 worker processes must leave no shared-memory
segment and no child process behind.

A case enters a row only where its features (latency, loss, adversary,
validation) are in the row engine's ``features``.  Exact equality
subsumes any statistical agreement check.  The corpus is the named
scenarios, a protocol axis on one scenario per family and a fixed set of
seeded generated specs per family; the worker-process rows (C, K > 1)
take the named and custom cases only, since each of their runs starts K
interpreters and placement is all they add over the K = 1 C row.
"""

import dataclasses
import functools
import gc
import hashlib
import multiprocessing
import os
import pathlib
import random
import subprocess
import sys
from typing import Callable, FrozenSet, Optional

import pytest

import repro
from repro.core.config import ProtocolConfig
from repro.core.policies import PeerSelection, Propagation, ViewSelection
from repro.experiments.common import ENGINES, make_engine
from repro.services import sampling_services
from repro.simulation._fastcore import load_accelerator
from repro.simulation.arrayviews import FlatArrayEngine
from repro.simulation.base import FEATURES
from repro.simulation.network import (
    BernoulliLoss,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.simulation.scenarios import random_bootstrap
from repro.simulation.trace import Observer
from repro.workloads import (
    ADVERSARY_KINDS,
    BOOTSTRAP_KINDS,
    EVENT_KINDS,
    AdversarySpec,
    CatastrophicFailure,
    ChurnTrace,
    ContinuousChurn,
    Grow,
    Heal,
    Partition,
    ScenarioSpec,
    compile_scenario,
    views_digest,
)

HAVE_ACCEL = load_accelerator() is not None
DRAWS = 3
"""``get_peer()`` draws per live node: repeated draws on one view row."""
SHARD_COUNTS = (1, 2, 3)
VIEW_SIZE = 6


@dataclasses.dataclass(frozen=True)
class Row:
    """One executor: a registry engine, its backend and its shard count
    (``None`` where the engine has no such choice)."""

    engine: str
    accelerate: Optional[bool] = None
    shards: Optional[int] = None

    @property
    def cls(self):
        return ENGINES[self.engine]

    @property
    def family(self) -> str:
        return self.cls.family

    @property
    def spawns(self) -> bool:
        """Whether the C phases run on K > 1 worker processes."""
        return bool(self.accelerate) and (self.shards or 1) > 1

    def __str__(self) -> str:
        backend = {None: "", False: "/py", True: "/C"}[self.accelerate]
        shards = "" if self.shards is None else f"/K{self.shards}"
        return self.engine + backend + shards

    @property
    def marks(self):
        """The C leg is skipped where no compiler is available."""
        if self.accelerate and not HAVE_ACCEL:
            return (pytest.mark.skip(reason="no C compiler"),)
        return ()


def table_rows():
    for name, cls in ENGINES.items():
        flat = issubclass(cls, FlatArrayEngine)
        counts = SHARD_COUNTS if "shards" in cls.features else (None,)
        for accelerate in (False, True) if flat else (None,):
            for shards in counts:
                yield Row(name, accelerate, shards)


ROWS = tuple(table_rows())

REFERENCES = {
    "cycle": Row("cycle"),
    "event": Row("event"),
    "sharded": Row("fast-sharded", accelerate=False, shards=1),
}
"""Family -> the run every member of the family must equal."""

SHARED_MT = ("cycle", "event")
"""Families whose engines consume one MT stream call for call."""


class TriangularLatency(LatencyModel):
    """A latency model outside the built-in set (sum of two uniforms):
    the C loop cannot express it, so every backend samples it in
    Python, like the reference does."""

    def sample(self, rng):
        return 0.05 + 0.1 * (rng.random() + rng.random())


def cut_every_fifth(engine):
    """An arbitrary ``reachable`` callable: only Python can decide it."""
    engine.reachable = lambda src, dst: (src + dst) % 5 != 0


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    spec: ScenarioSpec
    label: str = "(rand,head,pushpull)"
    n_nodes: int = 40
    seed: int = 5
    keep_self: bool = False
    omniscient: bool = True
    models: Optional[Callable[[], dict]] = None
    """Fresh latency/loss model instances per engine (beyond the spec's)."""
    setup: Optional[Callable] = None
    """Installed on the engine after the bootstrap."""
    python_steps: bool = False
    """A Python callable decides per message (``models`` or ``setup``)."""
    families: Optional[FrozenSet[str]] = None
    """``None``: every family whose engines support the features."""
    kind: str = "named"

    @property
    def config(self) -> ProtocolConfig:
        config = ProtocolConfig.from_label(self.label, VIEW_SIZE)
        return config.replace(keep_self_descriptors=self.keep_self)

    @property
    def knobs(self) -> dict:
        knobs = {"latency": self.spec.latency, "loss": self.spec.loss}
        knobs.update(self.models() if self.models else {})
        return knobs

    @property
    def features(self) -> FrozenSet[str]:
        used = dict(self.knobs, adversary=self.spec.adversary)
        used["validation"] = self.config.validate_descriptors or None
        return frozenset(k for k, v in used.items() if v is not None)

    def applies_to(self, row: Row) -> bool:
        return (
            (self.families is None or row.family in self.families)
            and self.features <= row.cls.features
            and not (row.spawns and self.kind in ("axis", "generated"))
        )

    def window_open(self, cycle: int) -> bool:
        attack = self.spec.adversary
        return attack is not None and attack.start_cycle <= cycle and (
            attack.stop_cycle is None or cycle < attack.stop_cycle
        )


def spec(name, *events, cycles=10, **fields):
    return ScenarioSpec(name=name, cycles=cycles, events=events, **fields)


def attack(kind, **fields):
    victims = (0, 1, 2) if kind == "eclipse" else ()
    return AdversarySpec(kind=kind, fraction=0.1, victims=victims, **fields)


FAILURE = CatastrophicFailure(at_cycle=6, fraction=0.4)
CHURN = ContinuousChurn(joins_per_cycle=2, leaves_per_cycle=2)
TRACE = ChurnTrace(rate=1.5, session_length=3.0, trace_seed=11)
SPLIT = (Partition(at_cycle=3), Heal(at_cycle=8),
         CatastrophicFailure(at_cycle=4, fraction=0.15),
         ContinuousChurn(joins_per_cycle=1, leaves_per_cycle=1))
"""A partition window with a crash and churn inside it."""

# Named scenarios: between them they take every peer, view and
# propagation value, keep_self_descriptors and non-omniscient selection
# onto the worker-process rows.
NAMED = [
    Case("random", spec("random")),
    Case("lattice", spec("lattice", bootstrap="lattice"),
         "(tail,rand,push);h3s3"),
    Case("grow", spec("grow", Grow(target=30, per_cycle=6),
                      bootstrap="empty"), "(rand,rand,pushpull)"),
    Case("failure", spec("failure", FAILURE, cycles=12), "(head,tail,pull)"),
    Case("churn", spec("churn", CHURN), "(rand,head,push);h1s1",
         omniscient=False),
    Case("churn-trace", spec("churn-trace", TRACE), "(tail,head,pushpull)",
         keep_self=True),
    Case("partition-heal", spec("partition-heal", *SPLIT, cycles=12),
         "(rand,rand,pull)"),
    Case("reachable-callable", spec("reachable"), setup=cut_every_fifth,
         python_steps=True),
    # the event family's message models
    Case("latency-constant", spec("constant", *SPLIT, cycles=12,
                                  latency=0.1), "(tail,rand,push)"),
    Case("latency-uniform+loss;v", spec("uniform", FAILURE, CHURN),
         "(rand,rand,pushpull);v", models=lambda: dict(
             latency=UniformLatency(0.05, 0.4), loss=BernoulliLoss(0.1))),
    Case("latency-expo+loss", spec("expo", TRACE, *SPLIT[:2]),
         "(head,tail,pull)", models=lambda: dict(
             latency=ExponentialLatency(0.2), loss=BernoulliLoss(0.02))),
    Case("latency-custom", spec("custom"), python_steps=True,
         models=lambda: dict(latency=TriangularLatency())),
    # attacks: windowed on a plain protocol, whole-run on a defended one
    *(Case(f"attack-{kind}", spec(kind, adversary=attack(
        kind, start_cycle=3, stop_cycle=8)), "(rand,rand,pushpull)")
      for kind in ADVERSARY_KINDS),
    *(Case(f"attack-{kind};v", spec(kind, adversary=attack(kind)),
           "(tail,rand,pushpull);h2s2;v") for kind in ADVERSARY_KINDS),
    Case("attack-hub+churn", spec("hub-churn", CHURN,
                                  adversary=attack("hub")), omniscient=False),
    Case("attack-tamper+loss", spec("tamper-loss", latency=0.2, loss=0.05,
                                    adversary=attack("tamper"))),
]

AXIS_PROTOCOLS = (
    ("(rand,head,pushpull)", {}),
    ("(rand,rand,push);h1s1", {}),
    ("(tail,rand,push);h3s3", {}),
    ("(head,tail,pull);h0s3", {}),
    ("(tail,tail,pushpull);h2s2;v", {}),
    ("(head,rand,pull);h1s1", {"keep_self": True}),
    ("(rand,head,push)", {"omniscient": False}),
)
"""Every peer x view x propagation value, healer/swapper, ``;v``,
``keep_self_descriptors`` and non-omniscient peer selection."""


def family_features(family):
    """What every engine of ``family`` supports."""
    members = [cls for cls in ENGINES.values() if cls.family == family]
    return frozenset.intersection(*(cls.features for cls in members))


def axis_cases(family, features):
    """The protocol axis on one scenario: converge, crash 40%, heal --
    with latency and loss where the family models messages."""
    timing = {"latency": 0.2, "loss": 0.05} if "loss" in features else {}
    axis = spec("axis", CatastrophicFailure(at_cycle=7, fraction=0.4),
                cycles=12, **timing)
    for label, options in AXIS_PROTOCOLS:
        case = Case(f"{family}-axis{label}", axis, label,
                    families=frozenset({family}), kind="axis", **options)
        if case.features <= features:
            yield case


def generated_cases(family, features, count=4):
    """Seeded, execution-sized specs over the event vocabulary and the
    family's features: fixed cost, the same specs on every run."""
    rng = random.Random(f"conformance-{family}")
    for index in range(count):
        cycles, n_nodes = rng.randint(6, 12), rng.randint(20, 40)
        bootstrap = rng.choice(BOOTSTRAP_KINDS)
        events = []
        if bootstrap == "empty":  # grow is valid on no other bootstrap
            events.append(Grow(target=n_nodes, per_cycle=rng.randint(3, 8)))
        if rng.random() < 0.5:
            events.append(CatastrophicFailure(
                at_cycle=rng.randrange(cycles), fraction=rng.random() / 2))
        if rng.random() < 0.5:
            events.append(ContinuousChurn(rng.randint(0, 3),
                                          rng.randint(1, 3)))
        if rng.random() < 0.5:
            events.append(ChurnTrace(
                rate=rng.uniform(0.5, 2.0), session_length=rng.uniform(1, 5),
                trace_seed=rng.randrange(100)))
        if rng.random() < 0.5:
            split = rng.randrange(cycles - 1)
            events += [Partition(split, rng.randint(2, 3)),
                       Heal(rng.randint(split + 1, cycles))]
        fields = {}
        if "latency" in features:
            fields["latency"] = rng.choice((0.05, 0.2, 0.6))
        if "loss" in features and rng.random() < 0.5:
            fields["loss"] = rng.choice((0.01, 0.1))
        if "adversary" in features and bootstrap != "empty":
            start = rng.randrange(cycles)
            fields["adversary"] = attack(
                rng.choice(ADVERSARY_KINDS), start_cycle=start,
                stop_cycle=rng.choice((None, rng.randint(start + 1, cycles))))
        labels = [label for label, options in AXIS_PROTOCOLS
                  if not options and ("validation" in features
                                      or not label.endswith(";v"))]
        yield Case(
            f"{family}-generated-{index}",
            spec(f"generated-{index}", *events, cycles=cycles,
                 bootstrap=bootstrap, **fields),
            rng.choice(labels), n_nodes, rng.randrange(1000),
            families=frozenset({family}), kind="generated")


def corpus():
    cases = list(NAMED)
    for family in REFERENCES:
        features = family_features(family)
        cases += [*axis_cases(family, features),
                  *generated_cases(family, features)]
    return {case.name: case for case in cases}


CASES = corpus()

PAIRS = [
    (row, case)
    for row in ROWS
    if row not in REFERENCES.values()
    for case in CASES.values()
    if case.applies_to(row)
]


class Probe(Observer):
    """Per cycle: whether the backend rule picked C (before), and the
    overlay digest (after)."""

    def __init__(self):
        self.digests, self.native = [], {}

    def before_cycle(self, engine):
        if isinstance(engine, FlatArrayEngine):
            self.native[engine.cycle] = engine._backend()[-1] is not None

    def after_cycle(self, engine):
        self.digests.append(views_digest(engine))


def run_row(row, case):
    """Run ``case`` on ``row``: ``(outcome to compare, C per cycle)``."""
    kwargs = {k: v for k, v in (("accelerate", row.accelerate),
                                ("shards", row.shards)) if v is not None}
    engine = make_engine(
        case.config, seed=case.seed, engine=row.engine,
        omniscient_peer_selection=case.omniscient, **case.knobs, **kwargs)
    try:
        runtime = compile_scenario(case.spec, engine, n_nodes=case.n_nodes)
        if case.setup is not None:
            case.setup(engine)
        probe = Probe()
        engine.add_observer(probe)
        runtime.run_to_end()
        outcome = {
            "digests": probe.digests,
            "exchanges": (engine.completed_exchanges,
                          engine.failed_exchanges),
        }
        if row.family == "event":
            outcome["messages"] = (engine.messages_sent,
                                   engine.messages_lost)
        outcome["draws"] = [
            [service.get_peer() for _ in range(DRAWS)]
            if service.initialized else None
            for service in sampling_services(engine).values()
        ]
        if row.family in SHARED_MT:
            outcome["rng"] = engine.rng.getstate()
    finally:
        getattr(engine, "close", lambda: None)()
    return outcome, probe.native


@functools.lru_cache(maxsize=None)
def reference(family, case_name):
    case = CASES[case_name]
    outcome, _ = run_row(REFERENCES[family], case)
    assert outcome["exchanges"][0] > 0, "the reference run never gossiped"
    if case.kind != "generated" and case.spec.events_of(Partition):
        dropped = outcome.get("messages", outcome["exchanges"])[1]
        assert dropped > 0, "the partition dropped no traffic"
    return outcome


def shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize(
    "row,case",
    [pytest.param(row, case, marks=row.marks, id=f"{row}-{case.name}")
     for row, case in PAIRS],
)
def test_row_matches_reference(row, case):
    segments, children = shm_entries(), set(multiprocessing.active_children())
    outcome, native = run_row(row, case)
    assert outcome == reference(row.family, case.name)
    expected = {
        cycle: bool(row.accelerate) and not (
            case.window_open(cycle) or case.python_steps
            or case.config.validate_descriptors)
        for cycle in native
    }
    assert native == expected
    if row.spawns:  # the cleanup contract: nothing outlives the engine
        gc.collect()
        assert shm_entries() <= segments
        assert set(multiprocessing.active_children()) <= children


# -- the table, checked ------------------------------------------------------


def test_rows_derive_from_the_table():
    def engines(pairs):  # a pair runs its row and its family reference
        return {r.engine for row, _ in pairs
                for r in (row, REFERENCES[row.family])}

    assert engines(PAIRS) == set(ENGINES)
    assert set(REFERENCES) == {cls.family for cls in ENGINES.values()}
    for family, row in REFERENCES.items():
        assert row in ROWS and row.family == family
    for feature in FEATURES:
        able = {name for name, cls in ENGINES.items()
                if feature in cls.features}
        if len(able) >= 2:
            assert engines((row, case) for row, case in PAIRS
                           if feature in case.features) == able, feature


@pytest.mark.parametrize("family", sorted(REFERENCES))
def test_corpus_covers_every_dimension(family):
    cases = {case.name: case for row, case in PAIRS if row.family == family}
    configs = [case.config for case in cases.values()]
    for policy, field in ((PeerSelection, "peer_selection"),
                          (ViewSelection, "view_selection"),
                          (Propagation, "propagation")):
        assert {getattr(c, field) for c in configs} == set(policy), field
    assert any(c.healer and c.swapper for c in configs)
    assert any(c.keep_self_descriptors for c in configs)
    assert not all(case.omniscient for case in cases.values())
    specs = [case.spec for case in cases.values()]
    assert {s.bootstrap for s in specs} == set(BOOTSTRAP_KINDS)
    assert {e.kind for s in specs for e in s.events} == set(EVENT_KINDS)
    if "validation" in family_features(family):
        assert any(c.validate_descriptors for c in configs)
    if "adversary" in family_features(family):
        assert {s.adversary.kind for s in specs if s.adversary} == set(
            ADVERSARY_KINDS)


# -- what the table cannot generate -------------------------------------------

_CHILD = """\
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from test_conformance import Row, outcome_digest
for row, case_name in {pairs!r}:
    print(outcome_digest(row, case_name))
"""


def outcome_digest(row, case_name):
    outcome, _ = run_row(row, CASES[case_name])
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


def test_fresh_interpreter_reproduces_rows():
    # hash randomization, import order and the accelerator cache state
    # of a new process must not change a seeded run
    pairs = [
        pair
        for accelerate in ((False, True) if HAVE_ACCEL else (False,))
        for pair in ((Row("fast-event", accelerate), "latency-expo+loss"),
                     (Row("fast-sharded", accelerate, 2), "partition-heal"))
    ]
    script = _CHILD.format(
        src=str(pathlib.Path(repro.__file__).resolve().parents[1]),
        tests=str(pathlib.Path(__file__).resolve().parent),
        pairs=pairs)
    child = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [outcome_digest(*pair) for pair in pairs]


@pytest.mark.skipif(not HAVE_ACCEL, reason="no C compiler")
def test_interleaved_engines_do_not_interfere():
    # The C core's registered buffers are process-global; engines must
    # re-register per scheduling slice, so two accelerated engines
    # advanced alternately produce exactly what each produces alone.
    def build(seed):
        engine = make_engine(CASES["random"].config, seed=seed,
                             engine="fast-event", latency=0.1)
        random_bootstrap(engine, 40)
        return engine

    solo = {}
    for seed in (1, 2):
        engine = build(seed)
        engine.run(14)
        solo[seed] = views_digest(engine)
    first, second = build(1), build(2)
    for _ in range(14):
        first.run_cycle()
        second.run_cycle()
    assert (views_digest(first), views_digest(second)) == (solo[1], solo[2])


@pytest.mark.parametrize("engine", ["fast", "fast-event"])
def test_spec_json_round_trip_runs_identically(engine):
    row = Row(engine, HAVE_ACCEL)
    for name in ("partition-heal", "churn-trace"):
        case = CASES[name]
        restored = ScenarioSpec.from_json(case.spec.to_json())
        assert restored == case.spec
        assert run_row(row, case) == run_row(
            row, dataclasses.replace(case, spec=restored))


@pytest.mark.parametrize("engine", ["fast", "fast-event"])
def test_different_seeds_differ(engine):
    row, case = Row(engine, HAVE_ACCEL), CASES["random"]
    assert run_row(row, case)[0] != run_row(
        row, dataclasses.replace(case, seed=6))[0]


def test_trace_replayed_identically_across_seeds():
    # The churn timeline comes from trace_seed, not the run seed: both
    # seeds end at the same population, with different overlays.
    row, case = Row("fast", HAVE_ACCEL), CASES["churn-trace"]
    first, _ = run_row(row, dataclasses.replace(case, seed=1))
    second, _ = run_row(row, dataclasses.replace(case, seed=2))
    assert len(first["draws"]) == len(second["draws"])
    assert first["digests"] != second["digests"]


@pytest.mark.parametrize(
    "family", [f for f in REFERENCES if "adversary" in family_features(f)])
def test_attack_changes_the_run(family):
    for kind in ADVERSARY_KINDS:
        attacked = CASES[f"attack-{kind}"]
        honest = dataclasses.replace(
            attacked, spec=attacked.spec.replace(adversary=None))
        assert reference(family, attacked.name) != run_row(
            REFERENCES[family], honest)[0], kind
