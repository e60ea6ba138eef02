"""Run-store & orchestration: content-addressed caching of experiment
results plus a fault-tolerant parallel scheduler.

The subsystem has four layers:

- :mod:`repro.runstore.keys` — canonical JSON serialization of a
  (scenario, options, :data:`CACHE_VERSION`) job and its sha256 key;
- :mod:`repro.runstore.store` — the on-disk content-addressed store
  (atomic writes, corruption-tolerant loads, manifest index, ``gc``);
- :mod:`repro.runstore.scheduler` — deduplicating, crash-retrying,
  checkpoint/resuming process-pool execution (:func:`run_jobs`);
- :mod:`repro.runstore.progress` — per-job events and sweep counters.

Typical use::

    from repro.runstore import Job, RunStore, run_jobs

    store = RunStore("benchmarks/_cache")
    outcome = run_jobs([Job(sc) for sc in scenarios], store=store)
    print(outcome.stats.summary())   # hits/misses/events-per-sec
"""

from __future__ import annotations

from .keys import CACHE_VERSION, DEFAULT_OPTIONS, canonical_json, job_key
from .progress import JobEvent, ProgressCallback, SweepStats, print_progress
from .scheduler import (
    DEFAULT_RETRIES,
    Job,
    JobFailure,
    RunOptions,
    SweepError,
    SweepOutcome,
    run_jobs,
)
from .store import GcReport, RunStore, StoreEntry

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_OPTIONS",
    "DEFAULT_RETRIES",
    "GcReport",
    "Job",
    "JobEvent",
    "JobFailure",
    "ProgressCallback",
    "RunOptions",
    "RunStore",
    "StoreEntry",
    "SweepError",
    "SweepOutcome",
    "SweepStats",
    "canonical_json",
    "job_key",
    "print_progress",
    "run_jobs",
]
