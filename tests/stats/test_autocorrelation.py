"""Unit and property tests for the autocorrelation toolkit."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.autocorrelation import (
    autocorrelation,
    confidence_band,
    fraction_outside_band,
)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        series = [1.0, 2.0, 3.0, 2.0, 1.0]
        assert autocorrelation(series, 3)[0] == pytest.approx(1.0)

    def test_constant_series_convention(self):
        result = autocorrelation([5.0] * 10, 4)
        assert result[0] == 1.0
        assert all(result[1:] == 0.0)

    def test_alternating_series_negative_lag_one(self):
        series = [1.0, -1.0] * 20
        result = autocorrelation(series, 2)
        assert result[1] < -0.9
        assert result[2] > 0.9

    def test_periodic_series_peaks_at_period(self):
        series = [math.sin(2 * math.pi * t / 10) for t in range(100)]
        result = autocorrelation(series, 20)
        assert result[10] > 0.8
        assert result[5] < -0.8

    def test_matches_paper_formula_directly(self):
        rng = random.Random(0)
        series = [rng.random() for _ in range(50)]
        mean = sum(series) / len(series)
        k = 7
        numerator = sum(
            (series[j] - mean) * (series[j + k] - mean)
            for j in range(len(series) - k)
        )
        denominator = sum((x - mean) ** 2 for x in series)
        assert autocorrelation(series, 10)[k] == pytest.approx(
            numerator / denominator
        )

    def test_lags_beyond_series_are_zero(self):
        result = autocorrelation([1.0, 2.0, 4.0], 10)
        assert all(result[3:] == 0.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation([], 5)

    def test_negative_max_lag_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0, 2.0], -1)

    def test_iid_series_stays_inside_band(self):
        rng = random.Random(42)
        series = [rng.gauss(0, 1) for _ in range(500)]
        outside = fraction_outside_band(
            autocorrelation(series, 100), confidence_band(len(series))
        )
        # Under the null about 1% of lags leave a 99% band.
        assert outside < 0.08


class TestConfidenceBand:
    def test_paper_parameters(self):
        # K = 300 cycles, 99% band: z_0.995 / sqrt(300) ~ 0.1487.
        assert confidence_band(300) == pytest.approx(0.1487, abs=1e-3)

    def test_narrows_with_more_samples(self):
        assert confidence_band(1000) < confidence_band(100)

    def test_level_controls_width(self):
        assert confidence_band(100, 0.95) < confidence_band(100, 0.99)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_band(0)
        with pytest.raises(ValueError):
            confidence_band(100, 1.5)


class TestHelpers:
    def test_fraction_outside_band(self):
        correlations = [1.0, 0.5, 0.01, -0.5, 0.02]
        assert fraction_outside_band(correlations, 0.1) == pytest.approx(0.5)

    def test_fraction_outside_band_includes_lag_zero_if_asked(self):
        correlations = [1.0, 0.0]
        assert fraction_outside_band(
            correlations, 0.5, skip_lag_zero=False
        ) == pytest.approx(0.5)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200),
    st.integers(0, 50),
)
@settings(max_examples=80)
def test_autocorrelation_bounded(series, max_lag):
    result = autocorrelation(series, max_lag)
    assert len(result) == max_lag + 1
    # |r_k| <= 1 by Cauchy-Schwarz (allow small float slack).
    assert np.all(np.abs(result) <= 1.0 + 1e-9)
