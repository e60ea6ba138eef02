"""Structured event traces: JSONL export for post-hoc diagnosis.

When a 5000-flow run degrades — the watchdog truncates it, a fault
schedule bites harder than expected — the summary numbers say *that*
something went wrong but not *when* or *to whom*. The
:class:`TraceRecorder` subscribes to every topic of an
:class:`~repro.obs.bus.EventBus` and keeps a structured, bounded record
of the published events; :func:`trace_jsonl` renders it as JSON Lines
(one event object per line) so external tools (``jq``, pandas) can
reconstruct the run's timeline.

Event rows share a common shape::

    {"t": <sim time>, "topic": "cwnd", "flow": 3, "kind": "loss_event", "cwnd": 12.0}
    {"t": <sim time>, "topic": "drop", "flow": 7, "seq": 1412}
    {"t": <sim time>, "topic": "fault", "desc": "link down"}

:func:`health_rows` renders a result's :class:`~repro.core.results.
RunHealth` record (and its fault timeline) in the same row format, and
:func:`trace_jsonl` appends them, so a single JSONL document carries the
whole story of a degraded run. It is the one renderer: ``repro run
--trace FILE`` writes its text, and the golden corpus hashes it.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Dict, List, Optional

from .bus import EventBus


class TraceRecorder:
    """Records every bus event as a structured row, with a hard memory cap.

    Parameters
    ----------
    bus:
        The event bus to tap. Subscriptions are installed immediately.
    max_events:
        Retain at most this many rows; further events are counted in
        ``dropped_events`` but not stored (the cap keeps full tracing
        safe on CoreScale runs). ``None`` means unbounded.
    start_time:
        Events before this simulated time are ignored (warm-up cut).
    """

    def __init__(
        self,
        bus: EventBus,
        max_events: Optional[int] = None,
        start_time: float = 0.0,
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.start_time = start_time
        self.events: List[Dict[str, Any]] = []
        self.dropped_events = 0
        bus.subscribe("cwnd", self._on_cwnd)
        for topic in ("enqueue", "drop"):
            bus.subscribe(topic, functools.partial(self._on_packet, topic))
        bus.subscribe("fault", self._on_fault)

    # ------------------------------------------------------------------
    # Handlers (one per payload shape)
    # ------------------------------------------------------------------

    def _record(self, row: Dict[str, Any]) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(row)

    def _on_cwnd(self, now: float, flow_id: int, kind: str, cwnd: float) -> None:
        if now < self.start_time:
            return
        self._record(
            {"t": now, "topic": "cwnd", "flow": flow_id, "kind": kind, "cwnd": cwnd}
        )

    def _on_packet(self, topic: str, now: float, packet: Any) -> None:
        if now < self.start_time:
            return
        self._record(
            {"t": now, "topic": topic, "flow": packet.flow_id, "seq": packet.seq}
        )

    def _on_fault(self, now: float, description: str) -> None:
        # Fault events are never warm-up-cut: the whole point of the
        # trace is explaining what the injector did to the run.
        self._record({"t": now, "topic": "fault", "desc": description})

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        for row in self.events:
            counts[row["topic"]] = counts.get(row["topic"], 0) + 1
        return {
            "recorded": len(self.events),
            "dropped": self.dropped_events,
            "by_topic": counts,
        }


def health_rows(result: Any) -> List[Dict[str, Any]]:
    """A result's health record and fault timeline as trace rows.

    Returns an empty list for results without a health record, so
    callers can append unconditionally.
    """
    health = getattr(result, "health", None)
    if health is None:
        return []
    rows: List[Dict[str, Any]] = [
        {
            "topic": "health",
            "ok": health.ok,
            "reason": health.reason,
            "truncated_at": health.truncated_at,
            "stalled_flows": list(health.stalled_flows),
        }
    ]
    for t, desc in health.fault_timeline:
        rows.append({"t": t, "topic": "fault", "desc": desc})
    return rows


def trace_jsonl(recorder: TraceRecorder, result: Any) -> str:
    """A recorder's events plus ``result``'s health/fault rows as one
    JSON Lines document (compact separators, one row per line)."""
    return "".join(
        json.dumps(row, separators=(",", ":")) + "\n"
        for row in recorder.events + health_rows(result)
    )
