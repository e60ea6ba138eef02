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

# Mutators: ("add", lo, hi) / ("add_point", v, 0) / ("remove_below", v, 0)
_OP = st.one_of(
    st.tuples(st.just("add"), _VALUE, _VALUE),
    st.tuples(st.just("add_point"), _VALUE, st.just(0)),
    st.tuples(st.just("remove_below"), _VALUE, st.just(0)),
)

_OPS = st.lists(_OP, min_size=1, max_size=30)


def _apply(rs: RangeSet, model: Set[int], op: Tuple[str, int, int]) -> None:
    kind, a, b = op
    if kind == "add":
        lo, hi = min(a, b), max(a, b)
        rs.add(lo, hi)  # lo == hi is the documented empty-range no-op
        model.update(range(lo, hi))
    elif kind == "add_point":
        rs.add_point(a)
        model.add(a)
    else:
        rs.remove_below(a)
        model.difference_update(v for v in list(model) if v < a)


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
    for probe in (0, 1, 17, 59, 60, 61, 119, 120, 121):
        assert (probe in rs) == (probe in model)
        expected_end = probe
        while expected_end in model:
            expected_end += 1
        if probe in model:
            assert rs.contiguous_end_from(probe) == expected_end
        else:
            assert rs.contiguous_end_from(probe) == probe


@PROPERTY_SETTINGS
@given(ops=_OPS)
def test_rangeset_matches_set_model(ops):
    rs, model = RangeSet(), set()
    for op in ops:
        _apply(rs, model, op)
        _check_against_model(rs, model)


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
    assert rebuilt == rs
    covered = set()
    prev_end = None
    for lo, hi in fragments:
        assert lo < hi
        if prev_end is not None:
            assert lo > prev_end  # disjoint and non-adjacent
        covered.update(range(lo, hi))
        prev_end = hi
    assert covered == model
