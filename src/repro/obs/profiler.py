"""Simulation profiler: where do the events — and the wall time — go?

The event loop executes millions of callbacks per simulated second;
knowing *which* handlers dominate (ACK processing? pacing timers?
monitor ticks?) is how the PR-3 event budget gets spent wisely. The
:class:`SimProfiler` hooks :meth:`repro.sim.engine.Simulator.run`'s
per-event dispatch and aggregates, per handler (identified by its
qualified name):

- event count, and
- cumulative wall-clock time spent inside the handler.

Determinism contract
--------------------
Profiling must never change simulation *results*. The profiler reads
the host clock (the one thing simulation code is forbidden to do —
hence the scoped lint suppression below), but everything it measures
stays in the profiler: no RNG draws, no event scheduling, no result
fields. ``run_experiment(profiler=...)`` therefore produces a
byte-identical :class:`~repro.core.results.ExperimentResult` to an
unprofiled run — a tier-1 test and the CI obs-smoke job both assert
it.

Surfaced via ``repro run --profile [TOP]`` (and ``repro compete``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional


class HandlerProfile:
    """Aggregated cost of one event handler."""

    __slots__ = ("name", "count", "wall_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wall_seconds = 0.0


def handler_name(fn: Callable[..., Any]) -> str:
    """A stable label for an event callback (its qualified name)."""
    name = getattr(fn, "__qualname__", None)
    if name:
        return str(name)
    return type(fn).__name__


class SimProfiler:
    """Per-event-type counters and wall-time accounting for one run.

    Install on a simulator with :meth:`install` (or pass
    ``profiler=`` to ``run_experiment``); the engine then brackets
    every callback with :meth:`clock` reads and reports each execution
    through :meth:`record`.
    """

    #: Host-clock source used to bracket handlers. Wall-clock reads are
    #: banned in simulation code (RPR001) — the profiler is the audited
    #: exception (held as a reference, called only from the engine's
    #: profiling branch), and its measurements never feed back into the
    #: run.
    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self._handlers: Dict[str, HandlerProfile] = {}
        self.events = 0
        self.wall_seconds = 0.0

    def install(self, sim: Any) -> "SimProfiler":
        """Attach to a simulator (its loop starts reporting here)."""
        sim.profiler = self
        return self

    def record(self, fn: Callable[..., Any], elapsed: float) -> None:
        """Fold one handler execution into the aggregates."""
        name = handler_name(fn)
        profile = self._handlers.get(name)
        if profile is None:
            profile = self._handlers[name] = HandlerProfile(name)
        profile.count += 1
        profile.wall_seconds += elapsed
        self.events += 1
        self.wall_seconds += elapsed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def handlers(self) -> List[HandlerProfile]:
        """All handler profiles, most expensive (by wall time) first;
        ties broken by name so the report order is stable."""
        return sorted(
            self._handlers.values(), key=lambda h: (-h.wall_seconds, h.name)
        )

    def events_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    def report(self, top: Optional[int] = None) -> str:
        """A human-readable profile table."""
        handlers = self.handlers()
        shown = handlers if top is None else handlers[:top]
        width = max([len(h.name) for h in shown], default=7)
        lines = [
            f"profile: {self.events} events in {self.wall_seconds:.3f}s wall "
            f"({self.events_per_second() / 1e3:.0f}k ev/s)",
            f"  {'handler':{width}s}  {'count':>10s}  {'wall':>9s}  {'share':>6s}  {'each':>8s}",
        ]
        for h in shown:
            share = h.wall_seconds / self.wall_seconds if self.wall_seconds else 0.0
            each = h.wall_seconds / h.count if h.count else 0.0
            lines.append(
                f"  {h.name:{width}s}  {h.count:10d}  {h.wall_seconds:8.3f}s "
                f" {share:6.1%}  {each * 1e6:6.1f}us"
            )
        if top is not None and len(handlers) > top:
            lines.append(f"  ... and {len(handlers) - top} more handler(s)")
        return "\n".join(lines)
