"""Equivalence tests: the array-level read interface vs the ``views()`` walk.

Every measurement reads an engine through ``edge_arrays()``,
``view_rows()``, ``dead_link_count()`` and ``view_sizes()``; the
flat-array engines answer those with numpy reductions over their raw
rows.  These tests pin each of them to a brute-force walk of the
descriptor objects ``views()`` hands out -- on overlays that have seen
churn (free-list row recycling, dead references, ghost contacts,
non-integer addresses) and on an empty engine -- for every flat engine,
shard count and kernel backend.  The reference implementations below are
the object-walking code the array path replaced, kept here on purpose.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.experiments.common import Scale, make_engine
from repro.graph.generators import erdos_renyi
from repro.graph.metrics import (
    average_path_length,
    bfs_distances,
    clustering_coefficient,
)
from repro.graph.snapshot import GraphSnapshot
from repro.simulation._fastcore import load_accelerator
from repro.simulation.arrayviews import FlatArrayEngine
from repro.simulation.scenarios import random_bootstrap
from repro.workloads.plan import ExperimentPlan, run_plan
from repro.workloads.runtime import views_digest
from repro.workloads.spec import CatastrophicFailure, ScenarioSpec

VIEW_SIZE = 7
N_NODES = 40
SEED = 99
CONFIG = ProtocolConfig.from_label("(rand,head,pushpull)", VIEW_SIZE)

HAVE_ACCEL = load_accelerator() is not None
BACKENDS = [
    False,
    pytest.param(
        True, marks=pytest.mark.skipif(not HAVE_ACCEL, reason="no C compiler")
    ),
]

ENGINE_GRID = [
    ("cycle", {}),
    ("fast", {}),
    ("fast-event", {}),
    ("fast-sharded", {"shards": 1}),
    ("fast-sharded", {"shards": 2}),
]


def build(name, kwargs, accelerate):
    if name != "cycle":
        kwargs = dict(kwargs, accelerate=accelerate)
    return make_engine(CONFIG, seed=SEED, engine=name, **kwargs)


def close(engine):
    closer = getattr(engine, "close", None)
    if closer is not None:
        closer()


# -- the object-walking references ------------------------------------------


def reference_digest(views):
    """The per-descriptor canonical digest, as first defined."""
    h = hashlib.sha256()
    for address, entries in views.items():
        h.update(repr(address).encode())
        h.update(b":")
        for descriptor in entries:
            h.update(
                f"{descriptor.address!r},{descriptor.hop_count};".encode()
            )
        h.update(b"\n")
    return h.hexdigest()


def reference_clustering(snapshot, sample=None, rng=None):
    """The set-intersection clustering coefficient."""
    n = snapshot.n
    sets = [set(snapshot.neighbors(i).tolist()) for i in range(n)]
    if sample is not None and sample < n:
        nodes = rng.sample(range(n), sample)
    else:
        nodes = range(n)
    total = 0.0
    count = 0
    for index in nodes:
        neighbors = snapshot.neighbors(index)
        k = len(neighbors)
        if k >= 2:
            links = sum(len(sets[j] & sets[index]) for j in neighbors)
            total += links / (k * (k - 1))
        count += 1
    return total / count if count else 0.0


def reference_csr(n, src, dst):
    """The ``np.unique`` CSR construction ``from_edge_arrays`` replaced."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    keys = np.unique(
        np.concatenate([src, dst]) * n + np.concatenate([dst, src])
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def assert_matches_object_walk(engine):
    views = engine.views()
    alive = set(views)
    assert views_digest(engine) == reference_digest(views)
    assert views_digest(views) == reference_digest(views)

    addresses, src, dst = engine.edge_arrays()
    assert addresses == list(views)
    assert src.size == dst.size == sum(
        1 for entries in views.values() for d in entries if d.address in alive
    )
    by_engine = GraphSnapshot.from_engine(engine)
    by_views = GraphSnapshot.from_views(views)
    assert by_engine.addresses == by_views.addresses == list(views)
    assert np.array_equal(by_engine.indptr, by_views.indptr)
    assert np.array_equal(by_engine.indices, by_views.indices)

    assert engine.dead_link_count() == sum(
        1
        for entries in views.values()
        for d in entries
        if d.address not in alive
    )
    assert engine.view_sizes() == [len(entries) for entries in views.values()]

    assert clustering_coefficient(by_engine) == reference_clustering(by_engine)
    assert clustering_coefficient(
        by_engine, sample=10, rng=random.Random(3)
    ) == reference_clustering(by_engine, sample=10, rng=random.Random(3))


# -- churned overlays --------------------------------------------------------


@pytest.mark.parametrize("accelerate", BACKENDS)
@pytest.mark.parametrize("name,kwargs", ENGINE_GRID)
def test_read_interface_matches_views_walk_under_churn(
    name, kwargs, accelerate
):
    engine = build(name, kwargs, accelerate)
    try:
        assert_matches_object_walk(engine)  # the empty engine
        random_bootstrap(engine, N_NODES)
        engine.run(4)
        assert_matches_object_walk(engine)
        # Dead references: crashed nodes stay in the survivors' views.
        victims = engine.crash_random_nodes(14)
        assert engine.dead_link_count() > 0
        assert_matches_object_walk(engine)
        # Free-list recycling, non-integer addresses, ghost contacts
        # (an address that never joins) and a rejoin under an old id.
        survivors = engine.addresses()
        for k in range(9):
            engine.add_node(
                f"late-{k}", contacts=[survivors[k], f"ghost-{k}", 3]
            )
        engine.add_node(victims[0], contacts=[survivors[0], "late-0"])
        assert_matches_object_walk(engine)
        engine.run(3)
        assert_matches_object_walk(engine)
        # Freed rows left unrecycled below the high-water mark.
        engine.crash_random_nodes(6)
        engine.remove_node("late-0")
        assert_matches_object_walk(engine)
    finally:
        close(engine)


@pytest.mark.parametrize("accelerate", BACKENDS)
@pytest.mark.parametrize(
    "name,kwargs",
    [entry for entry in ENGINE_GRID if entry[0] != "cycle"],
)
def test_no_storage_view_outlives_a_measurement(name, kwargs, accelerate):
    """A numpy view pins its ``array('q')`` / shared-memory segment (the
    sharded K = 2 leg with the C core); a leaked one would make the next
    growing ``add_node`` raise ``BufferError``."""
    engine = build(name, kwargs, accelerate)
    try:
        random_bootstrap(engine, N_NODES)
        engine.run(1)
        # Results stay referenced across the growth: they must be copies.
        held = [
            engine.edge_arrays(),
            GraphSnapshot.from_engine(engine),
            views_digest(engine),
            engine.dead_link_count(),
            engine.view_sizes(),
            next(iter(engine.view_rows())),
        ]
        # Far past every vector's capacity (shared memory starts at
        # 1024 items), so each one moves to a new buffer.
        for _ in range(400):
            engine.add_node(contacts=[0])
        assert len(engine) == N_NODES + 400
        assert_matches_object_walk(engine)
        assert held[4] == [VIEW_SIZE] * N_NODES
    finally:
        close(engine)


# -- the graph-side replacements ---------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_sorted_dedup_csr_equals_unique_reference(seed):
    rng = np.random.default_rng(seed)
    n = 60
    # Duplicates, both orientations and self-loops all present.
    src = rng.integers(0, n, size=900)
    dst = rng.integers(0, n, size=900)
    snapshot = GraphSnapshot.from_edge_arrays(list(range(n)), src, dst)
    indptr, indices = reference_csr(n, src, dst)
    assert np.array_equal(snapshot.indptr, indptr)
    assert np.array_equal(snapshot.indices, indices)


def test_numpy_bfs_agrees_with_the_scipy_path(monkeypatch):
    """Both ``average_path_length`` backends on one graph (CI installs
    scipy in a single leg only; everywhere else the BFS is what runs)."""
    import repro.graph.metrics as metrics

    snapshot = erdos_renyi(300, 0.01, rng=random.Random(5))
    with_default = average_path_length(
        snapshot, n_sources=20, rng=random.Random(1)
    )
    monkeypatch.setattr(metrics, "_HAVE_SCIPY", False)
    with_numpy = average_path_length(
        snapshot, n_sources=20, rng=random.Random(1)
    )
    assert with_numpy == with_default
    # Frontier expansion by gather reaches exactly the BFS levels.
    dist = bfs_distances(snapshot, 0)
    for node in range(snapshot.n):
        if dist[node] > 0:
            assert min(dist[snapshot.neighbors(node)]) == dist[node] - 1


# -- the object path is really gone ------------------------------------------


def test_plan_cell_measures_without_materializing_views(monkeypatch):
    """A count-style guard: the measurements of a ``fast`` cell never
    call ``views()`` (a timing assertion would not survive a noisy
    runner)."""

    def forbidden(self):
        raise AssertionError("a measurement materialized views()")

    plan = ExperimentPlan(
        name="array-path",
        scenario=ScenarioSpec(
            name="array-path",
            bootstrap="random",
            cycles=8,
            events=(CatastrophicFailure(at_cycle=5, fraction=0.5),),
        ),
        scales=(
            Scale(
                name="tiny",
                n_nodes=120,
                view_size=VIEW_SIZE,
                cycles=8,
                growth_cycles=1,
                runs=1,
                traced_nodes=1,
                removal_repeats=1,
                metrics_every=2,
                clustering_sample=50,
                path_sources=10,
            ),
        ),
        engines=("fast",),
        seeds=(SEED,),
        measurements=(
            "metrics",
            "dead-links",
            "degrees",
            "components",
            "view-sizes",
        ),
    )
    expected = run_plan(plan, workers=1)
    monkeypatch.setattr(FlatArrayEngine, "views", forbidden)
    guarded = run_plan(plan, workers=1)
    assert guarded.records_digest() == expected.records_digest()
    record = guarded.records[0]
    assert len(record.measurements["metrics"]["cycles"]) == 4
    assert max(record.measurements["dead-links"]["dead_links"]) > 0
    assert set(record.timings) == {
        "prepare_s",
        "run_s",
        "digest_s",
        "extract_s",
    }
    assert "timings" not in record.canonical_dict()


def test_plan_cell_builds_one_snapshot_per_measured_instant(monkeypatch):
    """A count guard of ``plan_cell_10k``'s shape at N=150: four metrics
    cycles, with the final overlay's ``degrees`` and ``components``
    reading the last of them -- four snapshots, not six."""
    built = []
    original = GraphSnapshot.from_edge_arrays.__func__

    def counting(cls, *args):
        built.append(1)
        return original(cls, *args)

    monkeypatch.setattr(
        GraphSnapshot, "from_edge_arrays", classmethod(counting)
    )
    plan = ExperimentPlan(
        name="snapshot-count",
        scenario=ScenarioSpec(
            name="snapshot-count",
            bootstrap="random",
            cycles=40,
            events=(CatastrophicFailure(at_cycle=30, fraction=0.5),),
        ),
        scales=(
            Scale(
                name="cell",
                n_nodes=150,
                view_size=VIEW_SIZE,
                cycles=40,
                growth_cycles=1,
                runs=1,
                traced_nodes=1,
                removal_repeats=1,
                metrics_every=10,
                clustering_sample=50,
                path_sources=10,
            ),
        ),
        engines=("fast",),
        seeds=(SEED,),
        measurements=("metrics", "dead-links", "degrees", "components"),
    )
    record = run_plan(plan, workers=1).records[0]
    assert record.measurements["metrics"]["cycles"] == [10, 20, 30, 40]
    assert len(built) == 4
