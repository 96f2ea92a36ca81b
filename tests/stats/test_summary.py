"""Unit tests for the Table 2 summary."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.summary import (
    DegreeDynamics,
    degree_dynamics_summary,
)


class TestDegreeDynamicsSummary:
    def test_basic_statistics(self):
        traces = [
            [10, 12, 11],  # mean 11
            [20, 22, 21],  # mean 21
        ]
        result = degree_dynamics_summary(traces, [15, 16, 17])
        assert result.traced_mean == pytest.approx(16.0)
        expected_sigma = np.var([11, 21], ddof=1)
        assert result.traced_std == pytest.approx(math.sqrt(expected_sigma))
        assert result.final_cycle_mean_degree == pytest.approx(16.0)
        assert result.n_traced == 2
        assert result.n_cycles == 3

    def test_dead_nodes_excluded(self):
        traces = [[5, 5, 5], [5, -1, 5]]
        result = degree_dynamics_summary(traces, [5])
        assert result.n_traced == 1

    def test_all_dead_rejected(self):
        with pytest.raises(ValueError):
            degree_dynamics_summary([[-1, -1]], [5])

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            degree_dynamics_summary([], [5])

    def test_empty_finals_rejected(self):
        with pytest.raises(ValueError):
            degree_dynamics_summary([[1, 2]], [])

    def test_single_trace_zero_variance(self):
        result = degree_dynamics_summary([[7, 7, 7]], [7])
        assert result.traced_std == 0.0

    def test_is_frozen_dataclass(self):
        result = degree_dynamics_summary([[1, 2]], [3])
        assert isinstance(result, DegreeDynamics)
        with pytest.raises(Exception):
            result.n_traced = 99


@given(
    st.lists(
        st.lists(st.integers(0, 500), min_size=4, max_size=4),
        min_size=2,
        max_size=30,
    )
)
@settings(max_examples=50)
def test_summary_consistency(traces):
    finals = [row[-1] for row in traces]
    result = degree_dynamics_summary(traces, finals)
    flat_min = min(min(row) for row in traces)
    flat_max = max(max(row) for row in traces)
    assert flat_min <= result.traced_mean <= flat_max
    assert result.traced_std >= 0
