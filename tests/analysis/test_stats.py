"""Tests for the statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import mean, median


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


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])
