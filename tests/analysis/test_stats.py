"""Tests for the statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import mean, median, percentile


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even(self):
        assert median([4, 1, 2, 3]) == 2.5

    def test_single(self):
        assert median([7.0]) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_median_between_min_and_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)


class TestPercentile:
    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_matches_median(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        assert percentile(values, 50) == median(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])
