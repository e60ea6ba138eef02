"""Structured event traces: JSONL export for post-hoc diagnosis.

When a 5000-flow run degrades — the watchdog truncates it, a fault
schedule bites harder than expected — the summary numbers say *that*
something went wrong but not *when* or *to whom*. The
:class:`TraceRecorder` subscribes to an :class:`~repro.obs.bus.EventBus`
and keeps a structured, bounded record of every published event, then
writes it as JSON Lines (one event object per line) so external tools
(``jq``, pandas) can reconstruct the run's timeline.

Event rows share a common shape::

    {"t": <sim time>, "topic": "cwnd", "flow": 3, "kind": "loss_event", "cwnd": 12.0}
    {"t": <sim time>, "topic": "drop", "flow": 7, "seq": 1412}
    {"t": <sim time>, "topic": "fault", "desc": "link down"}

:func:`health_rows` renders a result's :class:`~repro.core.results.
RunHealth` record (and its fault timeline) in the same row format, so a
single JSONL file can carry the whole story of a degraded run — the
``repro run --trace FILE`` CLI path appends it automatically.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .bus import TOPICS, EventBus

PathOrFile = Union[str, IO[str]]

#: Topics a recorder captures by default. ``loss``/``rto`` are
#: projections of ``cwnd`` events, so recording all three would store
#: every loss twice; the default set is complete without duplication.
DEFAULT_TOPICS: Tuple[str, ...] = ("cwnd", "enqueue", "drop", "fault")


class TraceRecorder:
    """Records bus events as structured rows, with a hard memory cap.

    Parameters
    ----------
    bus:
        The event bus to tap. Subscriptions are installed immediately.
    topics:
        Which topics to record (default: :data:`DEFAULT_TOPICS`).
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
        topics: Sequence[str] = DEFAULT_TOPICS,
        max_events: Optional[int] = None,
        start_time: float = 0.0,
    ) -> None:
        unknown = [t for t in topics if t not in TOPICS]
        if unknown:
            raise ValueError(f"unknown topics: {unknown}; known: {list(TOPICS)}")
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be positive")
        self.topics = tuple(topics)
        self.max_events = max_events
        self.start_time = start_time
        self.events: List[Dict[str, Any]] = []
        self.dropped_events = 0
        for topic in self.topics:
            if topic in ("cwnd",):
                bus.subscribe(topic, self._on_cwnd)
            elif topic in ("loss", "rto"):
                bus.subscribe(topic, self._make_flow_cwnd_handler(topic))
            elif topic in ("enqueue", "drop"):
                bus.subscribe(topic, self._make_packet_handler(topic))
            else:  # fault
                bus.subscribe(topic, self._on_fault)

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

    def _make_flow_cwnd_handler(self, topic: str) -> Any:
        def handler(now: float, flow_id: int, cwnd: float) -> None:
            if now < self.start_time:
                return
            self._record({"t": now, "topic": topic, "flow": flow_id, "cwnd": cwnd})

        return handler

    def _make_packet_handler(self, topic: str) -> Any:
        def handler(now: float, packet: Any) -> None:
            if now < self.start_time:
                return
            self._record(
                {
                    "t": now,
                    "topic": topic,
                    "flow": packet.flow_id,
                    "seq": packet.seq,
                }
            )

        return handler

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


def _open(dest: PathOrFile) -> Tuple[IO[str], bool]:
    if isinstance(dest, str):
        return open(dest, "w", newline=""), True
    return dest, False


def write_jsonl(rows: Iterable[Dict[str, Any]], dest: PathOrFile) -> int:
    """Write rows as JSON Lines; returns the number of rows written."""
    fh, owned = _open(dest)
    written = 0
    try:
        for row in rows:
            json.dump(row, fh, separators=(",", ":"))
            fh.write("\n")
            written += 1
    finally:
        if owned:
            fh.close()
    return written


def write_trace_jsonl(
    recorder: TraceRecorder, dest: PathOrFile, result: Any = None
) -> int:
    """Write a recorder's events — plus, when ``result`` is given, its
    health/fault rows — as one JSONL document. Returns rows written."""
    rows: List[Dict[str, Any]] = list(recorder.events)
    if result is not None:
        rows.extend(health_rows(result))
    return write_jsonl(rows, dest)
