"""Stall detection for the experiment loop.

Long faulted runs can strand flows: a blackout outlasting the RTO
backoff ceiling leaves a sender retransmitting into a dead link forever,
and a mis-wired component can deadlock a flow outright. Without defense
the only backstop is the runstore scheduler's wall-clock SIGALRM, which
kills the whole job and discards everything.

:class:`SimWatchdog` is the graceful alternative. Armed on a
:class:`~repro.sim.engine.Simulator`, it checks every
``check_interval`` simulated seconds whether each flow has made
*delivery* progress — cumulative delivered packets or ACKs received,
read through :meth:`repro.instrumentation.flowmon.FlowMonitor.
progress_marks` — and declares a flow **stalled** once it has gone
``stall_budget`` simulated seconds without either counter moving.
Retransmissions into a dead link do not count as progress (packets-sent
keeps growing during a blackout; deliveries do not).

When every runnable flow is stalled the watchdog aborts the run via
:meth:`Simulator.stop`; ``run_experiment`` then returns a *partial*
:class:`~repro.core.results.ExperimentResult` whose ``health`` record
carries the stalled flows, the fault timeline and the truncation time —
so a sweep degrades per-flow instead of losing the job.

The zero-sim-time-progress livelock (a cycle of same-instant events)
cannot be caught from inside the event stream — a watchdog event
scheduled in the future never fires. That failure mode is covered by
the ``max_events`` budget ``run_experiment`` always arms (see
``default_event_budget``), which the watchdog converts into the same
graceful partial result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..instrumentation.flowmon import FlowMonitor
from ..sim.engine import Simulator


@dataclass(frozen=True)
class WatchdogConfig:
    """Tuning for :class:`SimWatchdog` (hashed into run-store keys).

    Parameters
    ----------
    stall_budget:
        Simulated seconds a flow may go without delivery progress before
        it is declared stalled. Must comfortably exceed the longest
        legitimate quiet period — the RTO backoff ceiling (60 s by
        default) is the natural floor for production runs; tests use
        smaller budgets against scaled-down RTO ceilings.
    check_interval:
        How often the watchdog samples, in simulated seconds
        (default: ``stall_budget / 4``).
    abort_when_all_stalled:
        Abort the run once every runnable flow is stalled. With
        ``False`` the watchdog only records stalled flows in ``health``.
    """

    stall_budget: float = 60.0
    check_interval: Optional[float] = None
    abort_when_all_stalled: bool = True

    def __post_init__(self) -> None:
        if self.stall_budget <= 0:
            raise ValueError("stall_budget must be positive")
        if self.check_interval is not None and self.check_interval <= 0:
            raise ValueError("check_interval must be positive")

    @property
    def interval(self) -> float:
        return (
            self.check_interval
            if self.check_interval is not None
            else self.stall_budget / 4.0
        )


class SimWatchdog:
    """Periodic per-flow stall detector (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        monitor: FlowMonitor,
        start_times: Sequence[float],
        config: Optional[WatchdogConfig] = None,
    ) -> None:
        if len(start_times) != len(monitor.senders):
            raise ValueError("need one start time per monitored flow")
        self.sim = sim
        self.monitor = monitor
        self.config = config or WatchdogConfig()
        self.aborted = False
        self.abort_reason = ""
        self.stalled_flows: List[int] = []
        self.checks = 0
        self._start_times: Dict[int, float] = {
            sender.flow_id: start
            for sender, start in zip(monitor.senders, start_times)
        }
        self._last_marks: Dict[int, Any] = {}
        self._last_progress: Dict[int, float] = {}
        self._armed = False

    def arm(self) -> None:
        """Start the periodic checks (call once, before the run)."""
        if self._armed:
            raise RuntimeError("watchdog already armed")
        self._armed = True
        self.sim.schedule(self.config.interval, self._check)

    def abort(self, reason: str) -> None:
        """Record an abort and stop the running event loop."""
        self.aborted = True
        self.abort_reason = reason
        self.sim.stop()

    def _check(self) -> None:
        self.checks += 1
        now = self.sim.now
        marks = self.monitor.progress_marks()
        stalled: List[int] = []
        runnable = 0
        for sender in self.monitor.senders:
            fid = sender.flow_id
            if sender.completed or now < self._start_times[fid]:
                continue  # finished, or not yet started: can't stall
            runnable += 1
            mark = marks[fid]
            if mark != self._last_marks.get(fid):
                self._last_marks[fid] = mark
                self._last_progress[fid] = now
                continue
            since = now - self._last_progress.setdefault(fid, now)
            if since >= self.config.stall_budget:
                stalled.append(fid)
        self.stalled_flows = stalled
        if runnable and len(stalled) == runnable and self.config.abort_when_all_stalled:
            self.abort("stall")
            return
        self.sim.schedule(self.config.interval, self._check)
