"""Discrete-event simulation engine.

A small, fast event loop built on :mod:`heapq`. Every other component in
:mod:`repro.sim` — links, queues, TCP endpoints — schedules callbacks
through a single :class:`Simulator` instance.

Design notes
------------
- Events are plain lists ``[time, seq, fn, args]`` so that heap ordering
  uses C-level list comparison on ``(time, seq)`` — this matters: the
  heap performs millions of comparisons per simulated second, and a
  Python ``__lt__`` would dominate the profile. The ``seq`` tiebreaker
  makes same-instant events fire in scheduling order (deterministic
  runs) and guarantees the comparison never reaches the callback field.
- Events are never cancelled, so every heap entry is a live event. The
  TCP timers that are re-armed on nearly every ACK or segment (the
  retransmission and delayed-ACK timers) store a new deadline and
  re-check it when their event fires; the pacing timer is only ever
  moved later, so a pending one is kept as it is. Executing an event
  nulls its callback, the "fired" mark :func:`event_pending` reads.
- Sequence numbers come from one shared stream, ``Simulator.next_seq``
  (``itertools.count(1).__next__``). The two per-packet schedulers,
  :class:`~repro.sim.link.Link` (transmit completion and propagation)
  and :class:`~repro.sim.netem.NetemDelay`, push
  ``[time, next_seq(), fn, (packet,)]`` straight onto ``_heap`` instead
  of calling :meth:`Simulator.schedule`, and report the push to
  ``sanitizer.on_schedule`` themselves when a sanitizer is on. Every
  event draws from the same stream in the order it is pushed, so
  same-instant tie-breaks are exactly those of ``schedule``; the direct
  push only saves the Python frame. Every other caller uses
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.
  Code outside this module that depends on the event layout, and must
  change with it: the two pushes in ``Link._finish`` and the one in
  ``NetemDelay.send`` (which build the list), and
  ``TcpSender._try_send`` (which reads ``_FN`` of its pacing timer
  handle).
- ``run`` keeps two copies of the dispatch loop: the instrumented one
  (sanitizer and/or profiler brackets around every handler) and a bare
  one with no per-event instrumentation checks. They execute events
  identically — the split exists purely so the common case pays zero
  per-event cost for observation hooks it is not using.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from ..lint.sanitizer import SimSanitizer, maybe_sanitizer

#: A scheduled event: ``[time, seq, fn, args]``; ``fn is None`` once
#: executed. Treat as opaque outside this module except for the
#: documented helpers below.
Event = List[Any]

_TIME = 0
_SEQ = 1
_FN = 2
_ARGS = 3

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


def event_pending(event: Event) -> bool:
    """True while the event is scheduled and has not yet fired."""
    return event[_FN] is not None


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulator."""


class Simulator:
    """A discrete-event simulator with a virtual clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> sim.now, fired
    (1.5, ['hello'])

    Parameters
    ----------
    sanitize:
        Enable the runtime simulation sanitizer
        (:class:`repro.lint.sanitizer.SimSanitizer`): invariant checks
        on the clock, queues, links and TCP scoreboards, failing fast
        on violation. ``None`` (the default) defers to the
        ``REPRO_SANITIZE`` environment variable.
    """

    __slots__ = (
        "now",
        "_heap",
        "next_seq",
        "_running",
        "_stop_requested",
        "_events_processed",
        "sanitizer",
        "profiler",
    )

    def __init__(self, sanitize: Optional[bool] = None) -> None:
        self.now: float = 0.0
        self._heap: List[Event] = []
        #: The shared sequence stream: each call returns the next event
        #: sequence number (1, 2, ...). Direct pushers draw from it too.
        self.next_seq: Callable[[], int] = itertools.count(1).__next__
        self._running = False
        self._stop_requested = False
        self._events_processed = 0
        #: Active invariant checker, or ``None`` when sanitizing is off.
        #: Components wire themselves to it at construction time.
        self.sanitizer: Optional[SimSanitizer] = maybe_sanitizer(self, sanitize)
        #: Optional :class:`repro.obs.profiler.SimProfiler` (installed via
        #: ``profiler.install(sim)``). When set, the loop brackets every
        #: handler with ``profiler.clock()`` and reports through
        #: ``profiler.record(fn, elapsed)`` — observation only, so a
        #: profiled run stays byte-identical to an unprofiled one.
        self.profiler: Optional[Any] = None

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event: Event = [self.now + delay, self.next_seq(), fn, args]
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(event[_TIME])
        _heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        event: Event = [time, self.next_seq(), fn, args]
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(time)
        _heappush(self._heap, event)
        return event

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to return after the current event.

        The clock is left wherever the loop stopped (it is *not* advanced
        to ``until``), so callers can distinguish an early stop from
        natural completion by comparing ``now`` against their target time.
        Used by watchdogs to abort a run cleanly from inside an event.
        """
        self._stop_requested = True

    def release(self) -> None:
        """Drop every pending event; the simulation cannot continue.

        Nulls each pending entry's callback, so :func:`event_pending`
        reads False and a timer handle that still holds its entry no
        longer holds its owner's bound method, then empties the heap.
        This cuts every reference cycle that runs through a pending
        event. It also drops the sanitizer, whose back-reference to
        this simulator is the one other cycle a run builds.
        """
        heap = self._heap
        for event in heap:
            event[_FN] = None
        heap.clear()
        self.sanitizer = None

    def _next_pending_time(self) -> Optional[float]:
        """Firing time of the earliest pending event, or ``None`` if drained."""
        heap = self._heap
        if not heap:
            return None
        time: float = heap[0][_TIME]
        return time

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time. Events scheduled at
            exactly ``until`` still fire. The clock is advanced to
            ``until`` exactly when the run *completes*: every event due at
            or before ``until`` has executed. A run truncated early — by
            :meth:`stop` or by exhausting ``max_events`` with due events
            still pending — leaves the clock at the last executed event,
            so callers can detect the truncation. (A budget that runs out
            precisely as the last due event executes is a completed run,
            not a truncated one.)
        max_events:
            Safety valve: stop once ``events_processed`` reaches this
            total. The budget counts lifetime executed events, so a call
            with ``max_events <= events_processed`` executes nothing.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        heap = self._heap
        processed = self._events_processed
        budget = _INF if max_events is None else max_events - processed
        limit = _INF if until is None else until
        sanitizer = self.sanitizer
        profiler = self.profiler
        try:
            if sanitizer is None and profiler is None:
                # Bare loop: no per-event instrumentation checks.
                while heap:
                    event = heap[0]
                    time = event[_TIME]
                    if time > limit or budget <= 0:
                        break
                    budget -= 1
                    _heappop(heap)
                    self.now = time
                    fn = event[_FN]
                    event[_FN] = None
                    fn(*event[_ARGS])
                    processed += 1
                    if self._stop_requested:
                        break
            else:
                while heap:
                    event = heap[0]
                    time = event[_TIME]
                    if time > limit or budget <= 0:
                        break
                    budget -= 1
                    _heappop(heap)
                    if sanitizer is not None:
                        sanitizer.on_execute(time)
                    self.now = time
                    fn = event[_FN]
                    event[_FN] = None
                    if profiler is not None:
                        start = profiler.clock()
                        fn(*event[_ARGS])
                        profiler.record(fn, profiler.clock() - start)
                    else:
                        fn(*event[_ARGS])
                    processed += 1
                    if self._stop_requested:
                        break
        finally:
            self._events_processed = processed
            self._running = False
        if until is not None and self.now < until and not self._stop_requested:
            next_due = self._next_pending_time()
            if next_due is None or next_due > until:
                self.now = until
