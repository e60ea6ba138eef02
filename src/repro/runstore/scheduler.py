"""Fault-tolerant parallel job scheduler over the run store.

:func:`run_jobs` executes a batch of simulation jobs with:

- **deduplication** — jobs with identical cache keys (same scenario,
  options and :data:`~repro.runstore.keys.CACHE_VERSION`) simulate
  once; the result fans out to every requesting position;
- **caching** — with a :class:`~repro.runstore.store.RunStore`
  attached, previously stored results are served without simulating
  and fresh results are persisted *by the worker, as soon as each job
  finishes* (atomic writes), so a killed sweep loses at most the
  in-flight jobs;
- **checkpoint/resume** — re-running the same batch against the same
  store re-simulates only the keys with no stored result;
- **crash isolation** — workers run in a ``ProcessPoolExecutor`` via
  ``submit`` with per-future handling: one worker dying (OOM-kill,
  segfault, ``SIGKILL``) breaks the pool, which is rebuilt, and only
  the unfinished jobs are resubmitted, each within a bounded retry
  budget. Other jobs' completed results are never discarded;
- **per-job timeout** — enforced *inside* the worker with a POSIX
  interval timer, so a runaway simulation cannot wedge the sweep;
- **observability** — every lifecycle step emits a
  :class:`~repro.runstore.progress.JobEvent` (wall time, events/sec)
  and the call returns aggregate
  :class:`~repro.runstore.progress.SweepStats`.

Exceptions raised *by the simulation itself* are deterministic, so they
are not retried: the job is marked failed immediately. Retries cover
infrastructure faults only (worker crashes and timeouts).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.experiment import run_experiment
from ..core.scenarios import Scenario
from ..faults.watchdog import WatchdogConfig
from .keys import job_key
from .progress import JobEvent, ProgressCallback, SweepStats
from .store import RunStore

RunFn = Callable[..., Any]

#: Default additional attempts granted after a worker crash or timeout.
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class RunOptions:
    """The ``run_experiment`` keyword options that shape a result.

    Each field is one keyword. A field left at ``None`` (``watchdog``
    and ``max_events`` by default) is omitted from both the kwargs and
    the canonical (hashed) form, so cache keys written before those
    options existed stay valid.
    """

    record_drop_times: bool = True
    convergence_check: bool = False
    watchdog: Optional[WatchdogConfig] = None
    max_events: Optional[int] = None

    def to_kwargs(self) -> Dict[str, Any]:
        """The set options, as ``run_experiment`` keywords."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if getattr(self, f.name) is not None
        }

    def to_canonical(self) -> Dict[str, Any]:
        """The set options as plain JSON data: the dict hashed into the
        cache key."""
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


@dataclass(frozen=True)
class Job:
    """One unit of schedulable work: a scenario plus run options."""

    scenario: Scenario
    options: RunOptions = RunOptions()

    def key(self) -> str:
        return job_key(self.scenario, self.options.to_canonical())


@dataclass(frozen=True)
class JobFailure:
    """Terminal failure record for one unique job."""

    key: str
    name: str
    kind: str  # "error" | "timeout" | "crash"
    attempts: int
    error: str

    def render(self) -> str:
        return f"{self.name or self.key[:12]} [{self.kind}, {self.attempts} attempt(s)]: {self.error}"


@dataclass
class SweepOutcome:
    """Everything :func:`run_jobs` produced."""

    results: List[Any]
    stats: SweepStats
    failures: List[JobFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class SweepError(RuntimeError):
    """Some jobs failed terminally; completed results are preserved.

    ``results`` is aligned with the input jobs (``None`` at failed
    positions) and — when a store is attached — every completed result
    has already been persisted, so a re-run only repeats the failures.
    """

    def __init__(self, failures: List[JobFailure], results: List[Any], stats: SweepStats):
        self.failures = failures
        self.results = results
        self.stats = stats
        lines = "; ".join(f.render() for f in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(
            f"{len(failures)} of {stats.unique} unique job(s) failed: {lines}{more}"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

class _JobTimeout(BaseException):
    """Raised by the SIGALRM handler; BaseException so simulation code
    that catches ``Exception`` cannot swallow the deadline."""


@dataclass
class _Outcome:
    """What a worker reports back for one attempt (always picklable)."""

    status: str  # "ok" | "timeout" | "error"
    key: str
    wall_seconds: float = 0.0
    events: int = 0
    result: Any = None
    error: str = ""
    #: Run completed but was truncated by its watchdog/event budget
    #: (the result is partial and carries a ``health`` record).
    degraded: bool = False


def _run_with_timeout(
    run_fn: RunFn, scenario: Scenario, kwargs: Dict[str, Any], timeout: Optional[float]
) -> Any:
    if not timeout or not hasattr(signal, "setitimer"):
        return run_fn(scenario, **kwargs)

    def _on_alarm(signum: int, frame: Any) -> None:
        raise _JobTimeout()

    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return run_fn(scenario, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _execute(
    key: str,
    scenario: Scenario,
    kwargs: Dict[str, Any],
    run_fn: RunFn,
    timeout: Optional[float],
    store_root: Optional[str],
) -> _Outcome:
    """Run one job in the current process; never raises (crashes aside)."""
    # Host-clock reads are intentional throughout: they time the *real*
    # execution for observability and never feed the simulated clock.
    start = time.perf_counter()  # repro-lint: disable=RPR001
    try:
        result = _run_with_timeout(run_fn, scenario, kwargs, timeout)
    except _JobTimeout:
        wall = time.perf_counter() - start  # repro-lint: disable=RPR001
        return _Outcome(
            "timeout", key, wall_seconds=wall,
            error=f"timed out after {timeout}s",
        )
    except Exception:
        wall = time.perf_counter() - start  # repro-lint: disable=RPR001
        return _Outcome(
            "error", key, wall_seconds=wall,
            error=traceback.format_exc(limit=8).strip().splitlines()[-1],
        )
    wall = time.perf_counter() - start  # repro-lint: disable=RPR001
    events = int(getattr(result, "events_processed", 0))
    health = getattr(result, "health", None)
    degraded = health is not None and not health.ok
    outcome = _Outcome(
        "ok", key, wall_seconds=wall, events=events, result=result,
        degraded=degraded,
    )
    if store_root is not None:
        # Persist from the worker so a later parent death cannot lose
        # this result; a failed write degrades to a cache miss next run.
        # Degraded (watchdog/budget-truncated) partial results are stored
        # too: the truncation is deterministic, so a re-run would only
        # reproduce the same partial result the slow way.
        meta: Dict[str, Any] = {
            "name": scenario.name,
            "wall_seconds": wall,
            "events": events,
        }
        if degraded:
            meta["health_reason"] = health.reason
        try:
            RunStore(store_root).put(key, result, meta=meta)
        except Exception as exc:  # pragma: no cover - disk-full etc.
            outcome.error = f"result not persisted: {exc!r}"
    return outcome


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def run_jobs(
    jobs: Sequence[Job],
    store: Optional[RunStore] = None,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    fresh: bool = False,
    run_fn: RunFn = run_experiment,
    progress: Optional[ProgressCallback] = None,
    strict: bool = True,
) -> SweepOutcome:
    """Execute ``jobs`` (deduplicated, cached, fault-tolerant).

    Parameters
    ----------
    store:
        Attach a result store: hits skip simulation, fresh results are
        persisted as they complete, and re-runs resume from what is
        already stored.
    workers:
        Process count. ``None`` chooses ``min(pending, cpu_count)``;
        ``<= 1`` (or a single pending job) runs inline.
    timeout:
        Per-job wall-clock limit in seconds, enforced in the worker.
    retries:
        Additional attempts after a worker crash or timeout. Exceptions
        raised by the simulation itself are never retried.
    fresh:
        Ignore stored results (they are overwritten on completion).
    strict:
        Raise :class:`SweepError` when any job fails terminally;
        with ``strict=False`` failed positions are ``None`` instead.

    Returns a :class:`SweepOutcome` whose ``results`` align with
    ``jobs`` (duplicates share one result object).

    Inline runs execute misses in input order. Pool runs dispatch them
    costliest first, by ``scenario.duration * scenario.bottleneck_bw_bps``
    (proportional to the packets simulated), with ties kept in input
    order: the batch then ends on short jobs instead of waiting for a
    long one that started last. ``results`` align with ``jobs`` either
    way.
    """
    sweep_start = time.perf_counter()  # repro-lint: disable=RPR001
    stats = SweepStats(jobs=len(jobs))
    results: List[Any] = [None] * len(jobs)
    failures: List[JobFailure] = []

    index_map: Dict[str, List[int]] = {}
    job_by_key: Dict[str, Job] = {}
    order: List[str] = []
    for i, job in enumerate(jobs):
        k = job.key()
        if k not in index_map:
            index_map[k] = []
            job_by_key[k] = job
            order.append(k)
        index_map[k].append(i)
    stats.unique = len(order)

    def _emit(event: JobEvent) -> None:
        stats.observe(event)
        if progress is not None:
            progress(event)

    def _fill(key: str, payload: Any) -> None:
        for i in index_map[key]:
            results[i] = payload

    def _name(key: str) -> str:
        return job_by_key[key].scenario.name

    def _settle(key: str, outcome: _Outcome, attempt: int) -> None:
        """Record a terminal ok/timeout/error outcome."""
        if outcome.status == "ok":
            _fill(key, outcome.result)
            health = getattr(outcome.result, "health", None)
            _emit(JobEvent(
                "degraded" if outcome.degraded else "done",
                key, _name(key), attempt=attempt,
                wall_seconds=outcome.wall_seconds, events=outcome.events,
                error=health.reason if outcome.degraded and health else "",
                payload=outcome.result,
            ))
        else:
            failures.append(JobFailure(
                key, _name(key), outcome.status, attempt, outcome.error,
            ))
            _emit(JobEvent(
                "failed", key, _name(key), attempt=attempt,
                wall_seconds=outcome.wall_seconds, error=outcome.error,
            ))

    # ------------------------------------------------------------------
    # Serve cache hits.
    # ------------------------------------------------------------------
    pending: List[str] = []
    for k in order:
        if store is not None and not fresh:
            fetched = store.fetch(k)
            if fetched is not None:
                payload, meta = fetched
                _fill(k, payload)
                _emit(JobEvent(
                    "hit", k, _name(k),
                    wall_seconds=float(meta.get("wall_seconds", 0.0)),
                    events=int(meta.get("events", 0)),
                    payload=payload,
                ))
                continue
        pending.append(k)

    store_root = store.root if store is not None else None

    # ------------------------------------------------------------------
    # Execute the misses.
    # ------------------------------------------------------------------
    if pending:
        if workers is None:
            workers = min(len(pending), os.cpu_count() or 1)
        if workers <= 1 or len(pending) == 1:
            for k in pending:
                job = job_by_key[k]
                _emit(JobEvent("start", k, _name(k)))
                outcome = _execute(
                    k, job.scenario, job.options.to_kwargs(),
                    run_fn, timeout, store_root,
                )
                # Timeouts are not retried inline: the run is
                # deterministic, a second inline attempt would simply
                # time out again.
                _settle(k, outcome, attempt=1)
        else:
            _run_pool(
                pending, job_by_key, workers, timeout, retries, run_fn,
                store, store_root, _emit, _fill, _name, _settle,
                failures,
            )

    stats.elapsed_seconds = time.perf_counter() - sweep_start  # repro-lint: disable=RPR001
    if failures and strict:
        raise SweepError(failures, results, stats)
    return SweepOutcome(results=results, stats=stats, failures=failures)


def _cost(job: Job) -> float:
    """Dispatch cost of a job: the bits its bottleneck can carry in the
    run, which is proportional to the packets it simulates."""
    return job.scenario.duration * job.scenario.bottleneck_bw_bps


def _run_pool(
    pending: List[str],
    job_by_key: Dict[str, Job],
    workers: int,
    timeout: Optional[float],
    retries: int,
    run_fn: RunFn,
    store: Optional[RunStore],
    store_root: Optional[str],
    _emit: Callable[[JobEvent], None],
    _fill: Callable[[str, Any], None],
    _name: Callable[[str], str],
    _settle: Callable[[str, _Outcome, int], None],
    failures: List[JobFailure],
) -> None:
    """The ``submit`` + per-future loop with crash recovery.

    Pending jobs are dispatched costliest first (see :func:`_cost`), so
    the longest simulations start while every worker is still free
    instead of trailing the batch. Retries join the queue as they occur.

    Submission is deferred through ``to_submit`` so that a pool broken
    by a dying worker — whether detected from a future's result or from
    ``submit`` itself — is always recovered in one place: rebuild the
    pool, salvage what finished, and re-queue the survivors within
    their retry budgets.
    """
    attempts: Dict[str, int] = {}
    executor = ProcessPoolExecutor(max_workers=workers)
    # Costliest first (sorted() is stable, so equal costs keep input
    # order), reversed because to_submit is popped LIFO.
    by_cost = sorted(pending, key=lambda key: _cost(job_by_key[key]), reverse=True)
    to_submit: List[str] = list(reversed(by_cost))
    futures: Dict["Future[_Outcome]", str] = {}

    def _submit(pool: ProcessPoolExecutor, key: str) -> "Future[_Outcome]":
        job = job_by_key[key]
        attempts[key] = attempts.get(key, 0) + 1
        _emit(JobEvent("start", key, _name(key), attempt=attempts[key]))
        return pool.submit(
            _execute, key, job.scenario, job.options.to_kwargs(),
            run_fn, timeout, store_root,
        )

    def _fail(key: str, kind: str, message: str) -> None:
        failures.append(JobFailure(key, _name(key), kind, attempts[key], message))
        _emit(JobEvent(
            "failed", key, _name(key), attempt=attempts[key], error=message,
        ))

    def _retry_or_settle(key: str, outcome: _Outcome) -> None:
        if outcome.status == "timeout" and attempts[key] <= retries:
            _emit(JobEvent(
                "retry", key, _name(key), attempt=attempts[key],
                wall_seconds=outcome.wall_seconds, error=outcome.error,
            ))
            to_submit.append(key)
        else:
            _settle(key, outcome, attempts[key])

    try:
        while to_submit or futures:
            pool_broken = False
            while to_submit and not pool_broken:
                key = to_submit.pop()
                try:
                    futures[_submit(executor, key)] = key
                except BrokenProcessPool:
                    to_submit.append(key)
                    pool_broken = True

            if not pool_broken and futures:
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for fut in done:
                    key = futures.pop(fut)
                    try:
                        outcome = fut.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        futures[fut] = key  # recovered below with the rest
                        break
                    except Exception as exc:  # submission/pickling faults
                        _fail(key, "error", repr(exc))
                        continue
                    _retry_or_settle(key, outcome)

            if pool_broken:
                # A worker died (SIGKILL/OOM/segfault): every in-flight
                # future is void. Rebuild the pool, then salvage what we
                # can — a future that completed before the break still
                # holds a good outcome, and a job may have persisted its
                # result to the store just before the crash. Everything
                # else re-queues, consuming one attempt each.
                executor.shutdown(wait=False)
                executor = ProcessPoolExecutor(max_workers=workers)
                crashed = list(futures.items())
                futures.clear()
                for fut, key in crashed:
                    salvaged: Optional[_Outcome] = None
                    if fut.done():
                        try:
                            salvaged = fut.result()
                        except Exception:
                            salvaged = None
                    if salvaged is not None:
                        _retry_or_settle(key, salvaged)
                        continue
                    if store is not None:
                        fetched = store.fetch(key)
                        if fetched is not None:
                            payload, meta = fetched
                            _fill(key, payload)
                            _emit(JobEvent(
                                "done", key, _name(key), attempt=attempts[key],
                                wall_seconds=float(meta.get("wall_seconds", 0.0)),
                                events=int(meta.get("events", 0)),
                                payload=payload,
                            ))
                            continue
                    if attempts[key] <= retries:
                        _emit(JobEvent(
                            "retry", key, _name(key), attempt=attempts[key],
                            error="worker process died",
                        ))
                        to_submit.append(key)
                    else:
                        _fail(key, "crash", "worker process died repeatedly")
    finally:
        executor.shutdown(wait=False)
