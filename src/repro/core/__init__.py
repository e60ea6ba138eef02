"""Experiment core: scenarios, runner, results."""

from __future__ import annotations

from .experiment import default_event_budget, run_experiment
from .results import ExperimentResult, FlowResult, RunHealth
from .scenarios import (
    DEFAULT_CORE_SCALE,
    FlowGroup,
    Scenario,
    core_scale,
    edge_scale,
)

__all__ = [
    "Scenario",
    "FlowGroup",
    "edge_scale",
    "core_scale",
    "run_experiment",
    "default_event_budget",
    "ExperimentResult",
    "FlowResult",
    "RunHealth",
    "DEFAULT_CORE_SCALE",
]
