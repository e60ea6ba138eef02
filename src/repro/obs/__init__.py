"""Observability: event bus, profiler, structured traces.

The optional measurement layer on top of a run (DESIGN.md §10). Run
results never depend on it — they come from counters the senders and
queues own — so everything here is observation-only:

- :class:`EventBus` — typed topics fed by one forwarder per bound
  sender or queue, any number of subscribers behind it;
- :class:`SimProfiler` — per-handler event counts and wall time,
  guaranteed not to perturb results;
- :class:`TraceRecorder` — bounded structured event capture with JSONL
  export, including run-health/fault timelines for degraded runs.
"""

from __future__ import annotations

from .bus import TOPICS, EventBus
from .profiler import HandlerProfile, SimProfiler, handler_name
from .tracing import (
    DEFAULT_TOPICS,
    TraceRecorder,
    health_rows,
    read_jsonl,
    write_jsonl,
    write_trace_jsonl,
)

__all__ = [
    "TOPICS",
    "EventBus",
    "SimProfiler",
    "HandlerProfile",
    "handler_name",
    "DEFAULT_TOPICS",
    "TraceRecorder",
    "health_rows",
    "write_jsonl",
    "write_trace_jsonl",
    "read_jsonl",
]
