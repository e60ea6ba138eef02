"""Discrete-event network simulation substrate."""

from __future__ import annotations

from .engine import Event, SimulationError, Simulator
from .link import Link
from .netem import NetemDelay
from .packet import Packet
from .queue import DropTailQueue, Queue, REDQueue
from .topology import Dumbbell, Flow, FlowSpec, build_dumbbell

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "Packet",
    "Queue",
    "DropTailQueue",
    "REDQueue",
    "Link",
    "NetemDelay",
    "Dumbbell",
    "Flow",
    "FlowSpec",
    "build_dumbbell",
]
