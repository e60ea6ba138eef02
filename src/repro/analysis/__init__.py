"""Analysis toolkit: fairness, burstiness, model fitting, convergence."""

from __future__ import annotations

from .burstiness import burstiness_score, inter_event_times, windowed_burstiness
from .convergence import ConvergenceTracker
from .fairness import jains_fairness_index
from .mathis_fit import FlowObservation, MathisFit, fit_mathis
from .stats import mean, median
from .throughput import group_shares, loss_to_halving_ratio

__all__ = [
    "jains_fairness_index",
    "burstiness_score",
    "inter_event_times",
    "windowed_burstiness",
    "FlowObservation",
    "MathisFit",
    "fit_mathis",
    "group_shares",
    "loss_to_halving_ratio",
    "median",
    "mean",
    "ConvergenceTracker",
]
