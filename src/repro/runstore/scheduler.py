"""Fault-tolerant parallel job scheduler over the run store.

:func:`run_jobs` executes a batch of simulation jobs with:

- **deduplication** — jobs with identical cache keys (same scenario
  and options, under the same
  :func:`~repro.runstore.keys.physics_fingerprint`) simulate once; the
  result fans out to every requesting position;
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
  budget (:data:`CRASH_RETRIES`). Other jobs' completed results are
  never discarded;
- **per-job timeout** — enforced where the job runs (the worker, or
  this process inline) with a POSIX interval timer, so a runaway
  simulation cannot wedge the sweep;
- **observability** — every lifecycle step emits a
  :class:`~repro.runstore.progress.JobEvent` (wall time, events/sec)
  and the call returns aggregate
  :class:`~repro.runstore.progress.SweepStats`.

Exceptions raised *by the simulation itself* and timeouts are
deterministic, so they are not retried: the job is marked failed
immediately. Retries cover one infrastructure fault only: a worker
process that died.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.experiment import run_experiment
from ..core.scenarios import Scenario
from ..faults.watchdog import WatchdogConfig
from .keys import job_key
from .progress import JobEvent, ProgressCallback, SweepStats
from .store import RunStore

if TYPE_CHECKING:  # pragma: no cover - types only; run_pool imports the pool
    from concurrent.futures import Future

RunFn = Callable[..., Any]

#: Additional attempts granted to a job whose worker process died.
CRASH_RETRIES = 2


@dataclass(frozen=True)
class RunOptions:
    """The ``run_experiment`` keyword options that shape a result.

    Each field is one keyword. A field left at ``None`` (``watchdog``
    and ``max_events`` by default) is omitted from both the kwargs and
    the canonical (hashed) form.
    """

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

    #: "ok" | "timeout" | "error", or "crash", which the parent records
    #: for a job whose worker died once too often.
    status: str
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
        meta: Dict[str, Any] = {"name": scenario.name, "events": events}
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
        Per-job wall-clock limit in seconds, enforced where the job
        runs. A timeout is terminal: the run is deterministic and would
        time out again. An inline run enforces it with ``SIGALRM``,
        which only the main thread can install, so a call off the main
        thread that would run a job inline with a timeout raises
        :class:`ValueError` before any job runs.
    fresh:
        Ignore stored results (they are overwritten on completion).
    run_fn:
        Called as ``run_fn(scenario, **options)`` for each miss. Pool
        runs pickle it, so only an inline run can bind in-process
        observers (``functools.partial(run_experiment, bus=...)``).
    strict:
        Raise :class:`SweepError` when any job fails terminally;
        with ``strict=False`` failed positions are ``None`` instead.

    Returns a :class:`SweepOutcome` whose ``results`` align with
    ``jobs`` (duplicates share one result object). A job whose worker
    process dies is resubmitted up to :data:`CRASH_RETRIES` times;
    nothing else is retried.

    Inline runs execute misses in input order. Pool runs dispatch them
    costliest first, by ``scenario.duration * scenario.bottleneck_bw_bps``
    (proportional to the packets simulated), with ties kept in input
    order: the batch then ends on short jobs instead of waiting for a
    long one that started last. ``results`` align with ``jobs`` either
    way.
    """
    sweep_start = time.perf_counter()  # repro-lint: disable=RPR001
    sweep = _Sweep(jobs, store, timeout, run_fn, progress)
    pending = [k for k in sweep.jobs if fresh or not sweep.serve_stored(k, "hit")]
    if pending:
        if workers is None:
            workers = min(len(pending), os.cpu_count() or 1)
        if workers <= 1 or len(pending) == 1:
            if timeout and threading.current_thread() is not threading.main_thread():
                raise ValueError(
                    "run_jobs: an inline job's timeout needs SIGALRM, which "
                    "only the main thread can install; call run_jobs from the "
                    "main thread, or drop timeout"
                )
            for k in pending:
                sweep.emit("start", k)
                sweep.settle(k, _execute(*sweep.work(k)), attempt=1)
        else:
            sweep.run_pool(pending, workers)

    stats = sweep.stats
    stats.elapsed_seconds = time.perf_counter() - sweep_start  # repro-lint: disable=RPR001
    if sweep.failures and strict:
        raise SweepError(sweep.failures, sweep.results, stats)
    return SweepOutcome(results=sweep.results, stats=stats, failures=sweep.failures)


def _cost(job: Job) -> float:
    """Dispatch cost of a job: the bits its bottleneck can carry in the
    run, which is proportional to the packets it simulates."""
    return job.scenario.duration * job.scenario.bottleneck_bw_bps


class _Sweep:
    """One :func:`run_jobs` call: its unique jobs, where their results
    go, and the two ways a job ends — served from the store, or settled
    from an outcome."""

    def __init__(
        self,
        jobs: Sequence[Job],
        store: Optional[RunStore],
        timeout: Optional[float],
        run_fn: RunFn,
        progress: Optional[ProgressCallback],
    ) -> None:
        self.store = store
        self.timeout = timeout
        self.run_fn = run_fn
        self.progress = progress
        self.stats = SweepStats(jobs=len(jobs))
        self.results: List[Any] = [None] * len(jobs)
        self.failures: List[JobFailure] = []
        #: Unique keys in first-seen order, and the positions each fills.
        self.jobs: Dict[str, Job] = {}
        self.positions: Dict[str, List[int]] = {}
        for i, job in enumerate(jobs):
            key = job.key()
            self.jobs.setdefault(key, job)
            self.positions.setdefault(key, []).append(i)
        self.stats.unique = len(self.jobs)

    def emit(self, kind: str, key: str, **fields: Any) -> None:
        event = JobEvent(kind, key, self.jobs[key].scenario.name, **fields)
        self.stats.observe(event)
        if self.progress is not None:
            self.progress(event)

    def work(self, key: str) -> Tuple[Any, ...]:
        """The :func:`_execute` arguments of one attempt at ``key``."""
        job = self.jobs[key]
        store_root = self.store.root if self.store is not None else None
        return (
            key, job.scenario, job.options.to_kwargs(),
            self.run_fn, self.timeout, store_root,
        )

    def _fill(self, key: str, payload: Any) -> None:
        for i in self.positions[key]:
            self.results[i] = payload

    def serve_stored(self, key: str, kind: str, attempt: int = 1) -> bool:
        """Fill ``key`` from the store and emit ``kind`` (``"hit"``, or
        ``"done"`` for a result a crashed worker persisted). False when
        there is no store or no stored result."""
        fetched = self.store.fetch(key) if self.store is not None else None
        if fetched is None:
            return False
        payload, meta = fetched
        self._fill(key, payload)
        self.emit(
            kind, key, attempt=attempt,
            events=int(meta.get("events", 0)),
            payload=payload,
        )
        return True

    def settle(self, key: str, outcome: _Outcome, attempt: int) -> None:
        """Record a terminal outcome: ok, timeout, error or crash."""
        if outcome.status == "ok":
            self._fill(key, outcome.result)
            health = getattr(outcome.result, "health", None)
            self.emit(
                "degraded" if outcome.degraded else "done", key, attempt=attempt,
                wall_seconds=outcome.wall_seconds, events=outcome.events,
                error=health.reason if outcome.degraded and health else "",
                payload=outcome.result,
            )
        else:
            self.failures.append(JobFailure(
                key, self.jobs[key].scenario.name, outcome.status, attempt,
                outcome.error,
            ))
            self.emit(
                "failed", key, attempt=attempt,
                wall_seconds=outcome.wall_seconds, error=outcome.error,
            )

    def run_pool(self, pending: List[str], workers: int) -> None:
        """The ``submit`` + per-future loop with crash recovery.

        Pending jobs are dispatched costliest first (see :func:`_cost`),
        so the longest simulations start while every worker is still
        free instead of trailing the batch. Crash retries join the queue
        as they occur.

        Submission is deferred through ``to_submit`` so that a pool
        broken by a dying worker — whether detected from a future's
        result or from ``submit`` itself — is always recovered in one
        place: rebuild the pool, salvage what finished, and re-queue the
        survivors within their retry budgets.

        The pool stack (``concurrent.futures`` and ``multiprocessing``,
        with ``socket``, ``subprocess`` and ``logging`` under them) is
        imported here, by the first pool run: a process that only runs
        jobs inline never loads it.
        """
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        attempts: Dict[str, int] = {}
        # Costliest first (sorted() is stable, so equal costs keep input
        # order), reversed because to_submit is popped LIFO.
        by_cost = sorted(pending, key=lambda key: _cost(self.jobs[key]), reverse=True)
        to_submit: List[str] = list(reversed(by_cost))
        futures: Dict["Future[_Outcome]", str] = {}
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            while to_submit or futures:
                pool_broken = False
                while to_submit and not pool_broken:
                    key = to_submit.pop()
                    attempts[key] = attempts.get(key, 0) + 1
                    self.emit("start", key, attempt=attempts[key])
                    try:
                        futures[executor.submit(_execute, *self.work(key))] = key
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
                            outcome = _Outcome("error", key, error=repr(exc))
                        self.settle(key, outcome, attempts[key])

                if pool_broken:
                    # A worker died (SIGKILL/OOM/segfault): every in-flight
                    # future is void. Rebuild the pool, then salvage what
                    # we can — a future that completed before the break
                    # still holds a good outcome, and a job may have
                    # persisted its result to the store just before the
                    # crash. Everything else re-queues, consuming one
                    # attempt each.
                    executor.shutdown(wait=False)
                    executor = ProcessPoolExecutor(max_workers=workers)
                    crashed, futures = futures, {}
                    for fut, key in crashed.items():
                        salvaged: Optional[_Outcome] = None
                        if fut.done():
                            try:
                                salvaged = fut.result()
                            except Exception:
                                salvaged = None
                        if salvaged is not None:
                            self.settle(key, salvaged, attempts[key])
                        elif self.serve_stored(key, "done", attempts[key]):
                            pass
                        elif attempts[key] <= CRASH_RETRIES:
                            self.emit(
                                "retry", key, attempt=attempts[key],
                                error="worker process died",
                            )
                            to_submit.append(key)
                        else:
                            self.settle(key, _Outcome(
                                "crash", key, error="worker process died repeatedly",
                            ), attempts[key])
        finally:
            executor.shutdown(wait=False)
