"""Experiment core: scenarios, runner, results."""

from __future__ import annotations

from .experiment import default_event_budget, run_experiment
from .results import ExperimentResult, FlowResult, RunHealth
from .scenarios import (
    CORE_FLOW_COUNTS,
    DEFAULT_CORE_SCALE,
    EDGE_FLOW_COUNTS,
    RTT_SWEEP,
    FlowGroup,
    Scenario,
    competition,
    core_scale,
    edge_scale,
)

__all__ = [
    "Scenario",
    "FlowGroup",
    "edge_scale",
    "core_scale",
    "competition",
    "run_experiment",
    "default_event_budget",
    "ExperimentResult",
    "FlowResult",
    "RunHealth",
    "EDGE_FLOW_COUNTS",
    "CORE_FLOW_COUNTS",
    "RTT_SWEEP",
    "DEFAULT_CORE_SCALE",
]
