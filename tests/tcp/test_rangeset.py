"""Unit and property-based tests for RangeSet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.rangeset import RangeSet

ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 20)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    max_size=20,
)


def as_set(rs: RangeSet) -> set:
    out = set()
    for start, end in rs.ranges():
        out.update(range(start, end))
    return out


class TestBasics:
    def test_empty(self):
        rs = RangeSet()
        assert not rs
        assert len(rs) == 0
        assert rs.ranges() == []
        assert 5 not in as_set(rs)

    def test_add_single_range(self):
        rs = RangeSet()
        rs.fill(3, 7)
        assert rs.ranges() == [(3, 7)]
        assert len(rs) == 4
        covered = as_set(rs)
        assert 3 in covered and 6 in covered and 7 not in covered and 2 not in covered

    def test_fill_point(self):
        rs = RangeSet()
        assert rs.fill(5, 6) == [(5, 6)]
        assert rs.ranges() == [(5, 6)]
        assert rs.fill(5, 6) == []  # already covered: nothing new
        assert rs.ranges() == [(5, 6)]

    def test_merge_overlapping(self):
        rs = RangeSet([(1, 5), (3, 9)])
        assert rs.ranges() == [(1, 9)]

    def test_merge_adjacent(self):
        rs = RangeSet([(1, 5), (5, 8)])
        assert rs.ranges() == [(1, 8)]

    def test_disjoint_kept_separate(self):
        rs = RangeSet([(1, 3), (5, 8)])
        assert rs.ranges() == [(1, 3), (5, 8)]

    def test_bridge_merges_three(self):
        rs = RangeSet([(1, 3), (7, 9)])
        rs.fill(3, 7)
        assert rs.ranges() == [(1, 9)]

    def test_empty_range_ignored(self):
        rs = RangeSet()
        assert rs.fill(4, 4) == []
        assert not rs

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            RangeSet().fill(5, 3)

    def test_equality(self):
        assert RangeSet([(1, 3)]).ranges() == RangeSet([(1, 2), (2, 3)]).ranges()
        assert RangeSet([(1, 3)]).ranges() != RangeSet([(1, 4)]).ranges()


class TestQueries:
    def test_min_max(self):
        rs = RangeSet([(4, 6), (10, 12)])
        assert rs.ranges()[0][0] == 4  # the minimum leads the fragments
        assert rs.max_value() == 11

    def test_min_max_empty_raise(self):
        assert RangeSet().ranges() == []
        with pytest.raises(ValueError):
            RangeSet().max_value()

    def test_fill_extends_contiguous_run(self):
        """What the receiver reads after filling its cumulative point:
        the run holding a filled value ends where the cover ends."""
        rs = RangeSet([(2, 5), (7, 9)])
        assert rs.fill(3, 4) == []  # inside [2, 5): nothing new, no change
        assert rs.ranges() == [(2, 5), (7, 9)]
        assert rs.fill(5, 6) == [(5, 6)]  # touches [2, 5) and extends it
        assert rs.ranges() == [(2, 6), (7, 9)]
        assert rs.fill(6, 7) == [(6, 7)]  # bridges the gap to [7, 9)
        assert rs.ranges() == [(2, 9)]

    def test_fill_returns_holes(self):
        rs = RangeSet([(2, 4), (6, 8)])
        assert rs.fill(0, 10) == [(0, 2), (4, 6), (8, 10)]
        assert rs.ranges() == [(0, 10)]
        rs = RangeSet([(5, 8)])
        assert rs.fill(2, 5) == [(2, 5)]  # touching at the end merges
        assert rs.ranges() == [(2, 8)]
        rs = RangeSet([(1, 3), (10, 12)])
        assert rs.fill(5, 7) == [(5, 7)]  # between ranges, touching neither
        assert rs.ranges() == [(1, 3), (5, 7), (10, 12)]

    def test_holes_between(self):
        rs = RangeSet([(2, 4), (6, 8)])
        assert rs.holes_between(0, 10) == [(0, 2), (4, 6), (8, 10)]
        assert rs.holes_between(2, 8) == [(4, 6)]
        assert rs.holes_between(2, 4) == []
        assert rs.holes_between(5, 5) == []

    def test_holes_between_empty_set(self):
        assert RangeSet().holes_between(3, 6) == [(3, 6)]


class TestRemoveBelow:
    def test_removes_whole_ranges(self):
        rs = RangeSet([(1, 3), (5, 7)])
        rs.remove_below(4)
        assert rs.ranges() == [(5, 7)]

    def test_truncates_straddling_range(self):
        rs = RangeSet([(1, 10)])
        rs.remove_below(4)
        assert rs.ranges() == [(4, 10)]

    def test_noop_below_min(self):
        rs = RangeSet([(5, 7)])
        rs.remove_below(2)
        assert rs.ranges() == [(5, 7)]


class TestProperties:
    @given(ranges_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_python_set_model(self, ranges):
        rs = RangeSet()
        model = set()
        for start, end in ranges:
            rs.fill(start, end)
            model.update(range(start, end))
        assert as_set(rs) == model
        assert len(rs) == len(model)

    @given(ranges_strategy, st.integers(0, 250))
    @settings(max_examples=200, deadline=None)
    def test_membership_matches_model(self, ranges, probe):
        rs = RangeSet(ranges)
        model = set()
        for start, end in ranges:
            model.update(range(start, end))
        assert (probe in as_set(rs)) == (probe in model)

    @given(ranges_strategy)
    @settings(max_examples=200, deadline=None)
    def test_ranges_are_sorted_disjoint_nonadjacent(self, ranges):
        rs = RangeSet(ranges)
        out = rs.ranges()
        for (s1, e1), (s2, e2) in zip(out, out[1:]):
            assert e1 < s2, "ranges must stay disjoint and non-adjacent"
        for s, e in out:
            assert s < e

    @given(ranges_strategy, st.integers(0, 250))
    @settings(max_examples=100, deadline=None)
    def test_remove_below_matches_model(self, ranges, cutoff):
        rs = RangeSet(ranges)
        model = as_set(rs)
        rs.remove_below(cutoff)
        assert as_set(rs) == {v for v in model if v >= cutoff}

    @given(ranges_strategy, st.integers(0, 250), st.integers(0, 250))
    @settings(max_examples=100, deadline=None)
    def test_holes_complement_covered(self, ranges, a, b):
        lo, hi = min(a, b), max(a, b)
        rs = RangeSet(ranges)
        model = as_set(rs)
        holes = set()
        for s, e in rs.holes_between(lo, hi):
            holes.update(range(s, e))
        assert holes == {v for v in range(lo, hi) if v not in model}
