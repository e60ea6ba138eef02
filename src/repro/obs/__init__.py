"""Observability: event bus, profiler, structured traces.

The optional measurement layer on top of a run (DESIGN.md §10). Run
results never depend on it — they come from counters the senders and
queues own — so everything here is observation-only:

- :class:`EventBus` — one subscriber list per topic, fed by one
  forwarder per bound sender or queue;
- :class:`SimProfiler` — per-handler event counts and wall time,
  guaranteed not to perturb results;
- :class:`TraceRecorder` — bounded structured capture of every bus
  event, rendered with the run's health/fault rows by
  :func:`trace_jsonl`.
"""

from __future__ import annotations

from .bus import TOPICS, EventBus
from .profiler import HandlerProfile, SimProfiler, handler_name
from .tracing import TraceRecorder, health_rows, trace_jsonl

__all__ = [
    "TOPICS",
    "EventBus",
    "SimProfiler",
    "HandlerProfile",
    "handler_name",
    "TraceRecorder",
    "health_rows",
    "trace_jsonl",
]
