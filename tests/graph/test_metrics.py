"""Unit and cross-validation tests for topology metrics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import complete_graph, erdos_renyi, ring_lattice, star
from repro.graph.metrics import (
    average_degree,
    average_path_length,
    bfs_distances,
    clustering_coefficient,
    degree_histogram,
    local_clustering,
)
from repro.graph.snapshot import GraphSnapshot


def path_graph(n):
    return GraphSnapshot.from_edges(
        list(range(n)), [(i, i + 1) for i in range(n - 1)]
    )


class TestDegreeMetrics:
    def test_average_degree_cycle_graph(self):
        snapshot = ring_lattice(10, 2)
        assert average_degree(snapshot) == 2.0

    def test_average_degree_empty(self):
        assert average_degree(GraphSnapshot.from_views({})) == 0.0

    def test_degree_histogram(self):
        snapshot = star(5)
        histogram = degree_histogram(snapshot)
        assert histogram == {1: 4, 4: 1}


class TestClustering:
    def test_complete_graph_is_one(self):
        assert clustering_coefficient(complete_graph(6)) == pytest.approx(1.0)

    def test_tree_is_zero(self):
        assert clustering_coefficient(path_graph(8)) == 0.0

    def test_star_is_zero(self):
        assert clustering_coefficient(star(10)) == 0.0

    def test_triangle_with_tail(self):
        snapshot = GraphSnapshot.from_edges(
            "abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        )
        # a and b have cc 1, c has 1/3, d has 0.
        expected = (1 + 1 + 1 / 3 + 0) / 4
        assert clustering_coefficient(snapshot) == pytest.approx(expected)

    def test_local_clustering_degree_below_two(self):
        snapshot = path_graph(3)
        assert local_clustering(snapshot, 0) == 0.0

    def test_sampled_estimate_close_to_exact(self):
        snapshot = erdos_renyi(150, 0.08, random.Random(0))
        exact = clustering_coefficient(snapshot)
        sampled = clustering_coefficient(
            snapshot, sample=100, rng=random.Random(1)
        )
        assert sampled == pytest.approx(exact, abs=0.05)

    def test_empty_graph(self):
        assert clustering_coefficient(GraphSnapshot.from_views({})) == 0.0

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        snapshot = erdos_renyi(60, 0.1, random.Random(3))
        ours = clustering_coefficient(snapshot)
        theirs = nx.average_clustering(snapshot.to_networkx())
        assert ours == pytest.approx(theirs)


class TestPathLengths:
    def test_bfs_distances_path_graph(self):
        snapshot = path_graph(5)
        assert list(bfs_distances(snapshot, 0)) == [0, 1, 2, 3, 4]

    def test_bfs_unreachable_marked(self):
        snapshot = GraphSnapshot.from_edges([0, 1, 2], [(0, 1)])
        assert list(bfs_distances(snapshot, 0)) == [0, 1, -1]

    def test_average_path_length_path_graph(self):
        # Path on 3 nodes: distances 1,1,2 (ordered pairs doubled) -> 4/3.
        assert average_path_length(path_graph(3)) == pytest.approx(4 / 3)

    def test_average_path_length_complete(self):
        assert average_path_length(complete_graph(5)) == pytest.approx(1.0)

    def test_star_path_length(self):
        # Star on n nodes: leaf-leaf pairs at distance 2.
        n = 6
        leaves = n - 1
        total = 2 * leaves * 1 + leaves * (leaves - 1) * 2
        pairs = n * (n - 1)
        assert average_path_length(star(n)) == pytest.approx(total / pairs)

    def test_disconnected_graph_averages_within_components(self):
        snapshot = GraphSnapshot.from_edges(
            [0, 1, 2, 3], [(0, 1), (2, 3)]
        )
        assert average_path_length(snapshot) == pytest.approx(1.0)

    def test_no_edges_returns_nan(self):
        snapshot = GraphSnapshot.from_edges([0, 1], [])
        assert math.isnan(average_path_length(snapshot))

    def test_tiny_graph_returns_nan(self):
        assert math.isnan(average_path_length(GraphSnapshot.from_views({})))

    def test_sampled_estimate_close_to_exact(self):
        snapshot = erdos_renyi(120, 0.08, random.Random(5))
        exact = average_path_length(snapshot)
        sampled = average_path_length(
            snapshot, n_sources=60, rng=random.Random(6)
        )
        assert sampled == pytest.approx(exact, rel=0.08)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        snapshot = erdos_renyi(50, 0.15, random.Random(9))
        graph = snapshot.to_networkx()
        if nx.is_connected(graph):
            theirs = nx.average_shortest_path_length(graph)
            assert average_path_length(snapshot) == pytest.approx(theirs)


# -- property-based -----------------------------------------------------------


@given(st.integers(3, 40), st.floats(0.05, 0.5), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_metrics_bounds_on_random_graphs(n, p, seed):
    snapshot = erdos_renyi(n, p, random.Random(seed))
    cc = clustering_coefficient(snapshot)
    assert 0.0 <= cc <= 1.0
    apl = average_path_length(snapshot)
    if not math.isnan(apl):
        assert apl >= 1.0
    assert average_degree(snapshot) <= n - 1


@given(st.integers(2, 30), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_bfs_distance_triangle_inequality(n, seed):
    snapshot = erdos_renyi(n, 0.3, random.Random(seed))
    dist0 = bfs_distances(snapshot, 0)
    for i in range(snapshot.n):
        for j in snapshot.neighbors(i):
            if dist0[i] >= 0 and dist0[j] >= 0:
                assert abs(int(dist0[i]) - int(dist0[j])) <= 1
