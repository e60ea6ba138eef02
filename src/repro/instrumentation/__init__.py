"""Measurement instrumentation: per-flow goodput over the measured window."""

from __future__ import annotations

from .flowmon import FlowMonitor

__all__ = ["FlowMonitor"]
