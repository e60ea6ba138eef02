"""Tests for Jain's Fairness Index and related metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import jains_fairness_index


def test_perfect_fairness():
    assert jains_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_single_flow_is_fair():
    assert jains_fairness_index([7.0]) == pytest.approx(1.0)


def test_total_starvation_gives_one_over_n():
    assert jains_fairness_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_known_textbook_value():
    # Jain's classic example: allocations (1, 2, 3) -> 36/(3*14).
    assert jains_fairness_index([1, 2, 3]) == pytest.approx(36 / 42)


def test_all_zero_is_fair():
    assert jains_fairness_index([0.0, 0.0]) == 1.0


def test_scale_invariance():
    a = jains_fairness_index([1.0, 2.0, 4.0])
    b = jains_fairness_index([10.0, 20.0, 40.0])
    assert a == pytest.approx(b)


def test_validation():
    with pytest.raises(ValueError):
        jains_fairness_index([])
    with pytest.raises(ValueError):
        jains_fairness_index([1.0, -0.1])


@given(st.lists(st.floats(0, 1e9, allow_nan=False), min_size=1, max_size=100))
@settings(max_examples=300, deadline=None)
def test_jfi_bounds(allocations):
    jfi = jains_fairness_index(allocations)
    n = len(allocations)
    assert 1.0 / n - 1e-9 <= jfi <= 1.0 + 1e-9


@given(st.lists(st.floats(0.01, 1e6, allow_nan=False), min_size=2, max_size=50))
@settings(max_examples=200, deadline=None)
def test_jfi_permutation_invariant(allocations):
    assert jains_fairness_index(allocations) == pytest.approx(
        jains_fairness_index(sorted(allocations))
    )
