"""repro — at-scale TCP congestion-control measurement harness.

A from-scratch reproduction of Philip et al., *Revisiting TCP
Congestion Control Throughput Models & Fairness Properties At Scale*
(ACM IMC 2021): a packet-level network simulator with faithful
NewReno / CUBIC / BBRv1 stacks, the paper's dumbbell testbed
methodology, and the full analysis toolchain (Mathis fitting, Jain's
fairness index, Goh-Barabási burstiness).

Quickstart::

    from repro import core_scale, run_experiment

    result = run_experiment(core_scale(flows=1000, cca="bbr", scale=50))
    print(result.summary())
    print("intra-BBR JFI:", result.jfi("bbr"))
"""

from __future__ import annotations

from .analysis import (
    FlowObservation,
    burstiness_score,
    fit_mathis,
    jains_fairness_index,
)
from .core import (
    ExperimentResult,
    FlowGroup,
    FlowResult,
    RunHealth,
    Scenario,
    competition,
    core_scale,
    edge_scale,
    run_experiment,
    run_sweep,
)
from .faults import (
    FAULT_PRESETS,
    FaultEvent,
    FaultSchedule,
    WatchdogConfig,
)
from .models import (
    cubic_throughput,
    mathis_throughput,
    padhye_throughput,
    predict_bbr_share,
)
from .obs import (
    EventBus,
    SimProfiler,
    TraceRecorder,
)
from .runstore import (
    CACHE_VERSION,
    Job,
    JobEvent,
    RunOptions,
    RunStore,
    SweepError,
    SweepStats,
    job_key,
    run_jobs,
)
from .sim import Simulator
from .tcp.cca import make_cca

__version__ = "1.0.0"

__all__ = [
    "Scenario",
    "FlowGroup",
    "edge_scale",
    "core_scale",
    "competition",
    "run_experiment",
    "run_sweep",
    "CACHE_VERSION",
    "Job",
    "JobEvent",
    "RunOptions",
    "RunStore",
    "SweepError",
    "SweepStats",
    "job_key",
    "run_jobs",
    "ExperimentResult",
    "FlowResult",
    "RunHealth",
    "FAULT_PRESETS",
    "FaultEvent",
    "FaultSchedule",
    "WatchdogConfig",
    "Simulator",
    "make_cca",
    "EventBus",
    "SimProfiler",
    "TraceRecorder",
    "jains_fairness_index",
    "burstiness_score",
    "fit_mathis",
    "FlowObservation",
    "mathis_throughput",
    "padhye_throughput",
    "cubic_throughput",
    "predict_bbr_share",
    "__version__",
]
