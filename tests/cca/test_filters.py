"""Tests for the windowed max filter, including properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.cca.filters import WindowedFilter


def test_max_filter_tracks_maximum():
    f = WindowedFilter(10.0)
    assert f.update(5.0, 0.0) == 5.0
    assert f.update(3.0, 1.0) == 5.0
    assert f.update(8.0, 2.0) == 8.0


def test_max_filter_expires_old_samples():
    f = WindowedFilter(10.0)
    f.update(100.0, 0.0)
    f.update(5.0, 1.0)
    assert f.update(6.0, 11.0) == 6.0  # the 100 aged out


def test_invalid_configuration():
    with pytest.raises(ValueError):
        WindowedFilter(0.0)


samples = st.lists(
    st.tuples(st.floats(0, 1e6, allow_nan=False), st.integers(0, 100)),
    min_size=1,
    max_size=50,
)


@given(samples, st.floats(1, 50))
@settings(max_examples=200, deadline=None)
def test_max_matches_bruteforce(sample_list, window):
    f = WindowedFilter(window)
    history = []
    for value, t_int in sorted(sample_list, key=lambda p: p[1]):
        t = float(t_int)
        got = f.update(value, t)
        history.append((t, value))
        expected = max(v for ht, v in history if ht >= t - window)
        assert got == expected
