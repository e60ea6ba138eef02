"""Measurement instrumentation: tcpprobe cwnd traces, flow goodput."""

from __future__ import annotations

from .flowmon import FlowMonitor
from .tcpprobe import CwndProbe

__all__ = ["CwndProbe", "FlowMonitor"]
