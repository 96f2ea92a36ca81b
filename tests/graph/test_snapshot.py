"""Unit and property tests for graph snapshots."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.descriptor import NodeDescriptor
from repro.graph.snapshot import GraphSnapshot


class TestConstruction:
    def test_from_views_drops_orientation(self):
        views = {"a": [NodeDescriptor("b", 1)], "b": []}
        snapshot = GraphSnapshot.from_views(views)
        assert snapshot.edge_count == 1
        assert snapshot.has_edge("a", "b")
        assert snapshot.has_edge("b", "a")

    def test_from_views_accepts_raw_addresses(self):
        snapshot = GraphSnapshot.from_views({"a": ["b"], "b": ["a"]})
        assert snapshot.edge_count == 1

    def test_reciprocal_links_merge_to_one_edge(self):
        views = {"a": [NodeDescriptor("b", 1)], "b": [NodeDescriptor("a", 2)]}
        assert GraphSnapshot.from_views(views).edge_count == 1

    def test_dead_links_ignored(self):
        views = {"a": [NodeDescriptor("ghost", 1), NodeDescriptor("b", 1)], "b": []}
        snapshot = GraphSnapshot.from_views(views)
        assert snapshot.edge_count == 1
        assert "ghost" not in snapshot

    def test_self_loops_dropped(self):
        snapshot = GraphSnapshot.from_views({"a": [NodeDescriptor("a", 1)]})
        assert snapshot.edge_count == 0

    def test_empty_graph(self):
        snapshot = GraphSnapshot.from_views({})
        assert snapshot.n == 0
        assert snapshot.edge_count == 0
        assert snapshot.degrees().size == 0

    def test_from_edges(self):
        snapshot = GraphSnapshot.from_edges(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("b", "c")]
        )
        assert snapshot.edge_count == 2

    def test_from_edges_ignores_unknown_endpoints(self):
        snapshot = GraphSnapshot.from_edges(["a", "b"], [("a", "zzz")])
        assert snapshot.edge_count == 0

    def test_from_adjacency(self):
        snapshot = GraphSnapshot.from_adjacency({"a": ["b", "c"], "b": [], "c": []})
        assert snapshot.edge_count == 2

    def test_from_engine(self):
        from repro.core.config import newscast
        from repro.simulation.engine import CycleEngine
        from repro.simulation.scenarios import random_bootstrap

        engine = CycleEngine(newscast(view_size=4), seed=0)
        random_bootstrap(engine, 20)
        snapshot = GraphSnapshot.from_engine(engine)
        assert snapshot.n == 20
        assert snapshot.edge_count >= 20


class TestAccessors:
    def setup_method(self):
        self.snapshot = GraphSnapshot.from_edges(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("b", "c")],
        )

    def test_degrees(self):
        assert self.snapshot.degree_of("a") == 2
        assert self.snapshot.degree_of("d") == 0
        assert list(self.snapshot.degrees()) == [2, 2, 2, 0]

    def test_neighbors_of(self):
        assert set(self.snapshot.neighbors_of("a")) == {"b", "c"}
        assert self.snapshot.neighbors_of("d") == []

    def test_neighbors_sorted_indices(self):
        for i in range(self.snapshot.n):
            row = self.snapshot.neighbors(i)
            assert list(row) == sorted(row)

    def test_has_edge(self):
        assert self.snapshot.has_edge("a", "b")
        assert not self.snapshot.has_edge("a", "d")

    def test_contains_and_index(self):
        assert "a" in self.snapshot
        assert "z" not in self.snapshot
        assert self.snapshot.addresses[self.snapshot.index_of("c")] == "c"
        with pytest.raises(KeyError):
            self.snapshot.index_of("z")

    def test_gather_neighbors_concatenates_rows_in_order(self):
        index_of = self.snapshot.index_of
        nodes = np.array([index_of("c"), index_of("a")], dtype=np.int64)
        expected = np.concatenate(
            [self.snapshot.neighbors(i) for i in nodes]
        )
        gathered = self.snapshot.gather_neighbors(nodes)
        assert np.array_equal(gathered, expected)
        assert self.snapshot.gather_neighbors(nodes[:0]).size == 0

    def test_repr(self):
        assert "n=4" in repr(self.snapshot)


class TestSubgraphs:
    def setup_method(self):
        self.snapshot = GraphSnapshot.from_edges(
            list("abcde"),
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
        )

    def test_remove_nodes(self):
        remaining = self.snapshot.remove_nodes(["c"])
        assert remaining.n == 4
        assert remaining.edge_count == 2
        assert "c" not in remaining

    def test_remove_unknown_nodes_is_noop(self):
        remaining = self.snapshot.remove_nodes(["zzz"])
        assert remaining.n == 5
        assert remaining.edge_count == 4

    def test_induced_subgraph_mask(self):
        keep = np.array([True, True, False, True, True])
        sub = self.snapshot.induced_subgraph(keep)
        assert sub.n == 4
        assert sub.has_edge("a", "b")
        assert sub.has_edge("d", "e")
        assert not sub.has_edge("b", "d")

    def test_induced_subgraph_empty_mask(self):
        sub = self.snapshot.induced_subgraph(np.zeros(5, dtype=bool))
        assert sub.n == 0
        assert sub.edge_count == 0

    def test_mask_shape_validated(self):
        with pytest.raises(ValueError):
            self.snapshot.induced_subgraph(np.ones(3, dtype=bool))


class TestAgainstNetworkx:
    def test_matches_networkx_on_random_views(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        views = {
            i: [NodeDescriptor(rng.randrange(30), h % 5) for h in range(8)]
            for i in range(30)
        }
        snapshot = GraphSnapshot.from_views(views)
        graph = snapshot.to_networkx()
        assert graph.number_of_nodes() == snapshot.n
        assert graph.number_of_edges() == snapshot.edge_count
        for address in snapshot.addresses:
            assert graph.degree[address] == snapshot.degree_of(address)


# -- property-based -----------------------------------------------------------

adjacency_st = st.dictionaries(
    st.integers(0, 15),
    st.lists(st.integers(0, 15), max_size=6),
    max_size=16,
)


@given(adjacency_st)
@settings(max_examples=80)
def test_snapshot_invariants(adjacency):
    snapshot = GraphSnapshot.from_adjacency(adjacency)
    # Degree sum equals twice the edge count.
    assert int(snapshot.degrees().sum()) == 2 * snapshot.edge_count
    # CSR symmetry: j in N(i) <=> i in N(j); no self loops.
    sets = [
        set(snapshot.neighbors(i).tolist()) for i in range(snapshot.n)
    ]
    for i, neighbors in enumerate(sets):
        assert i not in neighbors
        for j in neighbors:
            assert i in sets[j]


@given(adjacency_st, st.sets(st.integers(0, 15), max_size=8))
@settings(max_examples=60)
def test_remove_nodes_never_grows(adjacency, victims):
    snapshot = GraphSnapshot.from_adjacency(adjacency)
    remaining = snapshot.remove_nodes(victims)
    assert remaining.n <= snapshot.n
    assert remaining.edge_count <= snapshot.edge_count
    for victim in victims:
        assert victim not in remaining
