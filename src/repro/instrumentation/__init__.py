"""Measurement instrumentation: per-flow counts over the measured window."""

from __future__ import annotations

from .flowmon import FlowMonitor

__all__ = ["FlowMonitor"]
