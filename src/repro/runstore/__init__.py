"""Run-store & orchestration: content-addressed caching of experiment
results plus a fault-tolerant parallel scheduler.

The subsystem has four layers:

- :mod:`repro.runstore.keys` — the sha256 key of a (scenario, options)
  job: canonical JSON of both plus the physics fingerprint, a hash of
  the golden corpus;
- :mod:`repro.runstore.store` — the on-disk content-addressed store
  (atomic writes, corruption-tolerant loads, listing from the
  self-describing objects, ``gc``);
- :mod:`repro.runstore.scheduler` — :func:`run_jobs`, the one way a
  job runs: deduplicating, checkpoint/resuming execution, inline or
  over a process pool that resubmits only the jobs whose worker died;
- :mod:`repro.runstore.progress` — per-job events and sweep counters.

Typical use::

    from repro.runstore import Job, RunStore, run_jobs

    store = RunStore("benchmarks/_cache")
    outcome = run_jobs([Job(sc) for sc in scenarios], store=store)
    print(outcome.stats.summary())   # hits/misses/events-per-sec
"""

from __future__ import annotations

from .keys import canonical_json, job_key
from .progress import JobEvent, ProgressCallback, SweepStats, print_progress
from .scheduler import (
    Job,
    JobFailure,
    RunOptions,
    SweepError,
    SweepOutcome,
    run_jobs,
)
from .store import GcReport, RunStore, StoreEntry

__all__ = [
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
