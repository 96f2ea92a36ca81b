"""Unit tests for distribution helpers."""

import pytest

from repro.stats.distributions import (
    distribution_span,
    histogram_dict,
    log_spaced_cycles,
    tail_weight,
)


class TestHistogramDict:
    def test_histogram_dict(self):
        assert histogram_dict([2, 2, 5]) == {2: 2, 5: 1}

    def test_empty(self):
        assert histogram_dict([]) == {}


class TestLogSpacedCycles:
    def test_paper_schedule(self):
        assert log_spaced_cycles(300) == [0, 3, 30, 300]

    def test_power_of_ten(self):
        assert log_spaced_cycles(100) == [0, 1, 10, 100]

    def test_small_max(self):
        assert log_spaced_cycles(0) == [0]
        assert log_spaced_cycles(1) == [0, 1]
        assert log_spaced_cycles(9) == [0, 9]

    def test_finer_schedule(self):
        schedule = log_spaced_cycles(100, per_decade=2)
        assert schedule[0] == 0
        assert schedule[-1] == 100
        assert schedule == sorted(set(schedule))
        assert len(schedule) > len(log_spaced_cycles(100))

    def test_monotone_and_unique(self):
        for max_cycle in (7, 42, 90, 150, 300, 1000):
            schedule = log_spaced_cycles(max_cycle)
            assert schedule == sorted(set(schedule))
            assert schedule[-1] == max_cycle

    def test_validation(self):
        with pytest.raises(ValueError):
            log_spaced_cycles(-1)
        with pytest.raises(ValueError):
            log_spaced_cycles(100, per_decade=0)


class TestBalanceIndicators:
    def test_distribution_span(self):
        assert distribution_span([5, 9, 7]) == 4
        assert distribution_span([]) == 0
        assert distribution_span([3]) == 0

    def test_tail_weight_balanced(self):
        assert tail_weight([10] * 100) == 0.0

    def test_tail_weight_with_hub(self):
        degrees = [10] * 99 + [1000]
        assert tail_weight(degrees) == pytest.approx(0.01)

    def test_tail_weight_custom_multiple(self):
        degrees = [1, 1, 1, 5]
        assert tail_weight(degrees, multiple=2.0) == pytest.approx(0.25)

    def test_tail_weight_empty(self):
        assert tail_weight([]) == 0.0
