"""Property tests: the heap-based Simulator vs a brute-force reference.

The optimized engine (the heap, the bare fast-path loop) must execute
exactly the same events in exactly the same order as the obviously
correct O(n^2) scheduler below. Hypothesis drives both with the same
randomly generated program of schedules, nested schedules, stops,
budgets and horizons, and the test compares the full execution logs
plus the final clock. After every program, every entry left in the
engine's heap must still be a live event.

All tests are derandomized (fixed example corpus per hypothesis
version) with ``database=None``, so CI never depends on the local
``.hypothesis`` example database and never flakes on a "lucky" find.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import _FN, Simulator

PROPERTY_SETTINGS = settings(
    max_examples=120, derandomize=True, database=None, deadline=None
)


class NaiveScheduler:
    """Reference implementation: linear scan for the minimum (time, seq).

    Mirrors the documented Simulator semantics — FIFO among same-time
    events, lifetime event budget, clock advanced to ``until`` only on
    natural completion — with none of the heap or the fast-path tricks.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._seq = 0
        self._pending: List[List[Any]] = []  # [time, seq, fn, args]
        self._stop = False

    def schedule(self, delay: float, fn, *args) -> List[Any]:
        assert delay >= 0
        self._seq += 1
        event = [self.now + delay, self._seq, fn, args]
        self._pending.append(event)
        return event

    def stop(self) -> None:
        self._stop = True

    def _next_live(self) -> Optional[List[Any]]:
        best = None
        for event in self._pending:
            if best is None or (event[0], event[1]) < (best[0], best[1]):
                best = event
        return best

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self._stop = False
        while True:
            if max_events is not None and self.events_processed >= max_events:
                break
            event = self._next_live()
            if event is None:
                break
            if until is not None and event[0] > until:
                break
            self._pending.remove(event)
            self.now = event[0]
            fn, args = event[2], event[3]
            event[2] = None
            fn(*args)
            self.events_processed += 1
            if self._stop:
                break
        if until is not None and self.now < until and not self._stop:
            nxt = self._next_live()
            if nxt is None or nxt[0] > until:
                self.now = until


# One program instruction: (delay, action, param). Actions:
#   "log"    — handler records (now, tag)
#   "spawn"  — handler additionally schedules a log event param later
_INSTRUCTION = st.tuples(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(["log", "spawn"]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False),
)

_PROGRAM = st.lists(_INSTRUCTION, min_size=1, max_size=40)


def _execute(sim, program, log: Optional[List[Tuple[float, str]]] = None) -> List[Tuple[float, str]]:
    """Load ``program`` into a scheduler and return its execution log."""
    if log is None:
        log = []

    def make_handler(tag: str, action: str, param: float):
        def handler() -> None:
            log.append((sim.now, tag))
            if action == "spawn":
                sim.schedule(param, log.append, (sim.now + param, f"{tag}-child"))

        return handler

    for idx, (delay, action, param) in enumerate(program):
        sim.schedule(delay, make_handler(f"e{idx}", action, param))
    return log


def _assert_heap_live(sim: Simulator) -> None:
    """Events are never cancelled, so no dead entry sits in the heap."""
    assert all(event[_FN] is not None for event in sim._heap)


@PROPERTY_SETTINGS
@given(program=_PROGRAM)
def test_run_matches_naive_reference(program):
    sim, ref = Simulator(sanitize=False), NaiveScheduler()
    log_sim = _execute(sim, program)
    log_ref = _execute(ref, program)
    sim.run()
    ref.run()
    assert log_sim == log_ref
    assert sim.now == ref.now
    assert sim.events_processed == ref.events_processed
    _assert_heap_live(sim)


@PROPERTY_SETTINGS
@given(
    program=_PROGRAM,
    until=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)
def test_run_until_matches_naive_reference(program, until):
    sim, ref = Simulator(sanitize=False), NaiveScheduler()
    log_sim = _execute(sim, program)
    log_ref = _execute(ref, program)
    sim.run(until=until)
    ref.run(until=until)
    assert log_sim == log_ref
    assert sim.now == ref.now
    assert sim.events_processed == ref.events_processed
    _assert_heap_live(sim)


@PROPERTY_SETTINGS
@given(program=_PROGRAM, budget=st.integers(min_value=0, max_value=60))
def test_budget_matches_naive_reference(program, budget):
    sim, ref = Simulator(sanitize=False), NaiveScheduler()
    log_sim = _execute(sim, program)
    log_ref = _execute(ref, program)
    sim.run(until=10.0, max_events=budget)
    ref.run(until=10.0, max_events=budget)
    assert log_sim == log_ref
    assert sim.now == ref.now
    assert sim.events_processed == ref.events_processed
    _assert_heap_live(sim)


class _StoppableLog(list):
    """A log list whose ``append`` can be swapped per instance."""


@PROPERTY_SETTINGS
@given(program=_PROGRAM, stop_after=st.integers(min_value=1, max_value=20))
def test_stop_matches_naive_reference(program, stop_after):
    """stop() fired from inside the handler that makes the stop_after-th
    log record; both schedulers must halt at the same point."""

    def run_side(sched) -> Tuple[List[Tuple[float, str]], float, int]:
        log = _StoppableLog()
        count = [0]

        def counting_append(item):
            list.append(log, item)
            count[0] += 1
            if count[0] == stop_after:
                sched.stop()

        _execute(sched, program, log=log)
        log.append = counting_append  # type: ignore[method-assign]
        sched.run(until=10.0)
        return list(log), sched.now, sched.events_processed

    sim = Simulator(sanitize=False)
    log_sim, now_sim, n_sim = run_side(sim)
    log_ref, now_ref, n_ref = run_side(NaiveScheduler())
    assert log_sim == log_ref
    assert now_sim == now_ref
    assert n_sim == n_ref
    _assert_heap_live(sim)
