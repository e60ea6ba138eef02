"""Property tests: RangeSet vs a plain ``set`` of integers.

Every RangeSet operation has an obvious meaning on a set of covered
integers; Hypothesis generates arbitrary interleavings of mutators and
checks each query against the model after every step. This is the
correctness net under the SACK scoreboard batching in
``TcpSender.send`` — the scoreboard's RangeSets are exactly what the
hot path now updates through fewer, larger calls.

Derandomized with ``database=None`` (see test_engine_properties).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.rangeset import RangeSet

PROPERTY_SETTINGS = settings(
    max_examples=200, derandomize=True, database=None, deadline=None
)

_VALUE = st.integers(min_value=0, max_value=120)

# Mutators: ("fill", lo, hi) / ("fill_point", v, 0) / ("remove_below", v, 0).
# A point fill is what the receiver makes for each out-of-order segment.
_OP = st.one_of(
    st.tuples(st.just("fill"), _VALUE, _VALUE),
    st.tuples(st.just("fill_point"), _VALUE, st.just(0)),
    st.tuples(st.just("remove_below"), _VALUE, st.just(0)),
)

_OPS = st.lists(_OP, min_size=1, max_size=30)


def _apply(rs: RangeSet, model: Set[int], op: Tuple[str, int, int]) -> None:
    kind, a, b = op
    if kind == "remove_below":
        rs.remove_below(a)
        model.difference_update(v for v in list(model) if v < a)
        return
    # lo == hi is the documented empty-range no-op.
    lo, hi = (min(a, b), max(a, b)) if kind == "fill" else (a, a + 1)
    # fill returns exactly the part of [lo, hi) the set did not cover.
    assert rs.fill(lo, hi) == _model_holes(model, lo, hi)
    model.update(range(lo, hi))


def _model_holes(model: Set[int], start: int, end: int) -> List[Tuple[int, int]]:
    holes: List[Tuple[int, int]] = []
    run_start = None
    for v in range(start, end):
        if v not in model:
            if run_start is None:
                run_start = v
        elif run_start is not None:
            holes.append((run_start, v))
            run_start = None
    if run_start is not None:
        holes.append((run_start, end))
    return holes


def _check_against_model(rs: RangeSet, model: Set[int]) -> None:
    assert rs.consistency_error() is None
    assert bool(rs) == bool(model)
    assert len(rs) == len(model)
    if model:
        assert rs.max_value() == max(model)
    fragments = rs.ranges()
    for probe in (0, 1, 17, 59, 60, 61, 119, 120, 121):
        # A covered probe's fragment ends where its run in the model
        # does: the cumulative point a receiver reads after a fill.
        expected_end = probe
        while expected_end in model:
            expected_end += 1
        holding = [end for start, end in fragments if start <= probe < end]
        assert holding == ([expected_end] if probe in model else [])


@PROPERTY_SETTINGS
@given(ops=_OPS)
def test_rangeset_matches_set_model(ops):
    rs, model = RangeSet(), set()
    for op in ops:
        _apply(rs, model, op)
        _check_against_model(rs, model)


@PROPERTY_SETTINGS
@given(
    fills=st.lists(st.tuples(_VALUE, st.integers(0, 12)), min_size=1, max_size=40)
)
def test_fill_matches_brute_force(fills):
    """Every fill, checked against a plain integer set: the holes it
    returns are exactly what it newly covered, the merged set equals the
    model's union, and the representation invariant holds."""
    rs, model = RangeSet(), set()
    for lo, length in fills:
        hi = lo + length
        expected = {v for v in range(lo, hi) if v not in model}
        holes = rs.fill(lo, hi)
        returned: Set[int] = set()
        for s, e in holes:
            assert s < e
            returned.update(range(s, e))
        assert returned == expected
        assert holes == _model_holes(model, lo, hi)  # ascending, maximal
        model.update(range(lo, hi))
        assert rs.consistency_error() is None
        assert {v for s, e in rs.ranges() for v in range(s, e)} == model


@PROPERTY_SETTINGS
@given(ops=_OPS, start=_VALUE, end=_VALUE)
def test_holes_and_covers_match_model(ops, start, end):
    rs, model = RangeSet(), set()
    for op in ops:
        _apply(rs, model, op)
    lo, hi = min(start, end), max(start, end)
    holes = rs.holes_between(lo, hi)
    assert holes == _model_holes(model, lo, hi)
    # [lo, hi) is covered exactly when it has no holes.
    assert (holes == []) == all(v in model for v in range(lo, hi))


@PROPERTY_SETTINGS
@given(ops=_OPS)
def test_ranges_roundtrip(ops):
    """ranges() is a faithful, canonical representation: rebuilding a
    RangeSet from it yields an equal set, and the fragments are sorted,
    disjoint and non-adjacent."""
    rs, model = RangeSet(), set()
    for op in ops:
        _apply(rs, model, op)
    fragments = rs.ranges()
    rebuilt = RangeSet(fragments)
    assert rebuilt.ranges() == fragments
    covered = set()
    prev_end = None
    for lo, hi in fragments:
        assert lo < hi
        if prev_end is not None:
            assert lo > prev_end  # disjoint and non-adjacent
        covered.update(range(lo, hi))
        prev_end = hi
    assert covered == model
