"""Fault-tolerant scheduler tests: dedup, hits, crash retry, timeouts."""

import concurrent.futures
import os
import subprocess
import sys
import threading
from concurrent.futures import Future

import pytest

import repro
from repro.core.scenarios import FlowGroup
from repro.runstore import (
    Job,
    RunOptions,
    RunStore,
    SweepError,
    run_jobs,
)
from repro.runstore import scheduler

from . import fakes
from .fakes import scenario


def _store(tmp_path):
    return RunStore(str(tmp_path / "store"))


def test_dedup_identical_scenarios_run_once(tmp_path):
    store = _store(tmp_path)
    jobs = [Job(scenario(0)), Job(scenario(1)), Job(scenario(0))]
    out = run_jobs(jobs, store=store, workers=1, run_fn=fakes.quick_run)
    assert out.stats.jobs == 3
    assert out.stats.unique == 2
    assert out.stats.deduplicated == 1
    assert out.stats.misses == 2 and out.stats.hits == 0
    assert out.results[0] == out.results[2] == {"name": "s0", "seed": 0}
    assert out.results[1] == {"name": "s1", "seed": 1}


def test_hits_skip_execution_entirely(tmp_path):
    store = _store(tmp_path)
    jobs = [Job(scenario(i)) for i in range(2)]
    run_jobs(jobs, store=store, workers=1, run_fn=fakes.quick_run)
    # Second pass: run_fn raising proves every job was served from the store.
    out = run_jobs(jobs, store=store, workers=1, run_fn=fakes.fail_if_called)
    assert out.stats.hits == 2 and out.stats.misses == 0
    assert [r["name"] for r in out.results] == ["s0", "s1"]


def test_fresh_forces_resimulation(tmp_path):
    store = _store(tmp_path)
    jobs = [Job(scenario(i)) for i in range(2)]
    run_jobs(jobs, store=store, workers=1, run_fn=fakes.quick_run)
    out = run_jobs(jobs, store=store, workers=1, run_fn=fakes.quick_run, fresh=True)
    assert out.stats.hits == 0 and out.stats.misses == 2


def test_resume_runs_only_missing_keys(tmp_path):
    store = _store(tmp_path)
    jobs = [Job(scenario(i)) for i in range(4)]
    run_jobs(jobs[:2], store=store, workers=1, run_fn=fakes.quick_run)
    out = run_jobs(jobs, store=store, workers=1, run_fn=fakes.quick_run)
    assert out.stats.hits == 2 and out.stats.misses == 2
    assert [r["name"] for r in out.results] == ["s0", "s1", "s2", "s3"]


def test_results_are_persisted_per_job(tmp_path):
    store = _store(tmp_path)
    run_jobs([Job(scenario(5))], store=store, workers=1, run_fn=fakes.quick_run)
    assert store.get(Job(scenario(5)).key()) == {"name": "s5", "seed": 5}


def test_deterministic_error_not_retried_and_strict_raises(tmp_path):
    store = _store(tmp_path)
    jobs = [Job(scenario(i)) for i in range(4)]  # odd seeds raise
    with pytest.raises(SweepError) as excinfo:
        run_jobs(jobs, store=store, workers=1, run_fn=fakes.error_for_odd_seed)
    err = excinfo.value
    assert err.stats.retries == 0
    assert {f.name for f in err.failures} == {"s1", "s3"}
    assert all(f.kind == "error" and f.attempts == 1 for f in err.failures)
    # Completed results survive the partial failure.
    assert err.results[0] == {"name": "s0", "seed": 0}
    assert err.results[2] == {"name": "s2", "seed": 2}
    assert err.results[1] is None and err.results[3] is None


def test_strict_false_returns_partial_outcome(tmp_path):
    store = _store(tmp_path)
    jobs = [Job(scenario(i)) for i in range(2)]
    out = run_jobs(
        jobs, store=store, workers=1, run_fn=fakes.error_for_odd_seed, strict=False
    )
    assert out.stats.failures == 1
    assert out.results[0] == {"name": "s0", "seed": 0}
    assert out.results[1] is None


def test_worker_crash_is_retried(tmp_path, monkeypatch):
    flag_dir = tmp_path / "flags"
    flag_dir.mkdir()
    monkeypatch.setenv(fakes.FLAG_DIR_ENV, str(flag_dir))
    store = _store(tmp_path)
    monkeypatch.setattr(scheduler, "CRASH_RETRIES", 6)
    jobs = [Job(scenario(i)) for i in range(3)]
    out = run_jobs(jobs, store=store, workers=2, run_fn=fakes.crash_once)
    assert [r["name"] for r in out.results] == ["s0", "s1", "s2"]
    assert all(r["recovered"] for r in out.results)
    assert out.stats.retries >= 3  # every job crashed (at least) once
    assert out.stats.failures == 0
    # Results written by retried workers are persisted like any other.
    assert store.get(Job(scenario(0)).key())["recovered"] is True


def test_crash_beyond_retry_budget_fails_but_keeps_other_results(tmp_path, monkeypatch):
    store = _store(tmp_path)
    # s1 crashes on every attempt, but only after s0's result is in the
    # store (see fakes.crash_for_s1): a pool breakage voids every
    # in-flight future and charges each such job an attempt, so an
    # unsynchronised crash could burn s0's retry budget too.
    monkeypatch.setenv(fakes.STORE_DIR_ENV, store.root)
    monkeypatch.setattr(scheduler, "CRASH_RETRIES", 1)
    jobs = [Job(scenario(0)), Job(scenario(1))]  # s1 always crashes
    with pytest.raises(SweepError) as excinfo:
        run_jobs(jobs, store=store, workers=2, run_fn=fakes.crash_for_s1)
    err = excinfo.value
    assert len(err.failures) == 1
    assert err.failures[0].name == "s1"
    assert err.failures[0].kind == "crash"
    assert err.failures[0].attempts == 2  # initial try + one retry
    assert err.results[0] == {"name": "s0"}
    assert err.results[1] is None
    assert store.get(Job(scenario(0)).key()) == {"name": "s0"}


def test_pool_timeout_fails_job_without_killing_sweep(tmp_path):
    # A timeout is terminal in the pool as inline: the run is
    # deterministic, so a retry would only time out again. Only a dead
    # worker consumes CRASH_RETRIES.
    store = _store(tmp_path)
    jobs = [Job(scenario(0)), Job(scenario(1), RunOptions())]
    events = []
    out = run_jobs(
        jobs,
        store=store,
        workers=2,
        timeout=1.0,
        strict=False,
        run_fn=fakes.sleep_for_s1,
        progress=events.append,
    )
    assert out.results[0] == {"name": "s0"}
    assert out.results[1] is None
    assert out.stats.failures == 1
    assert out.stats.retries == 0
    assert "retry" not in [e.kind for e in events]
    [failure] = out.failures
    assert (failure.name, failure.kind, failure.attempts) == ("s1", "timeout", 1)


def test_inline_timeout(tmp_path):
    store = _store(tmp_path)
    out = run_jobs(
        [Job(scenario(0, name="s1"))],
        store=store,
        workers=1,
        timeout=0.5,
        strict=False,
        run_fn=fakes.sleep_for_s1,
    )
    assert out.results == [None]
    assert out.stats.failures == 1


def test_inline_timeout_off_the_main_thread_is_refused(tmp_path):
    """An inline timeout needs SIGALRM, which only the main thread can
    install: run_jobs refuses up front instead of failing every job."""
    store = _store(tmp_path)
    events = []
    raised = []

    def call():
        try:
            run_jobs(
                [Job(scenario(0))],
                store=store,
                workers=1,
                timeout=5.0,
                run_fn=fakes.quick_run,
                progress=events.append,
            )
        except ValueError as exc:
            raised.append(exc)

    thread = threading.Thread(target=call)
    thread.start()
    thread.join()
    [exc] = raised
    assert "main thread" in str(exc)
    assert events == []  # no job started
    assert store.ls() == []  # nothing stored
    # Without a timeout the same call runs the job on the thread.
    outcomes = []
    thread = threading.Thread(
        target=lambda: outcomes.append(
            run_jobs([Job(scenario(0))], store=store, workers=1, run_fn=fakes.quick_run)
        )
    )
    thread.start()
    thread.join()
    assert outcomes[0].results == [{"name": "s0", "seed": 0}]


def test_progress_event_stream(tmp_path):
    store = _store(tmp_path)
    events = []
    jobs = [Job(scenario(i)) for i in range(2)]
    run_jobs(jobs, store=store, workers=1, run_fn=fakes.quick_run, progress=events.append)
    assert [e.kind for e in events] == ["start", "done", "start", "done"]
    assert events[1].payload == {"name": "s0", "seed": 0}
    events.clear()
    run_jobs(jobs, store=store, workers=1, run_fn=fakes.quick_run, progress=events.append)
    assert [e.kind for e in events] == ["hit", "hit"]
    assert all(e.payload is not None for e in events)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the order jobs are
    submitted in and runs each one at once, in this process."""

    submitted = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def submit(self, fn, key, scenario, *args):
        self.submitted.append(scenario.name)
        future = Future()
        future.set_result(fn(key, scenario, *args))
        return future

    def shutdown(self, wait=True):
        pass


def test_pool_dispatches_costliest_first(monkeypatch):
    # run_pool imports the pool class from concurrent.futures when it
    # runs, so the stand-in goes there.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "submitted", [])

    def sized(name, duration, mbps):
        base = scenario(0, name=name)
        return base.with_overrides(duration=duration, bottleneck_bw_bps=mbps * 1e6)

    # Cost is duration * bottleneck rate: d 40, b and c tie at 20 (b
    # first in the input), a and e tie at 10 (a first).
    jobs = [
        Job(sized("a", 1.0, 10)),
        Job(sized("b", 2.0, 10)),
        Job(sized("c", 1.0, 20)),
        Job(sized("d", 4.0, 10)),
        Job(sized("e", 1.0, 10)),
        Job(sized("b", 2.0, 10)),  # a duplicate runs once
    ]
    events = []
    out = run_jobs(jobs, workers=2, run_fn=fakes.quick_run, progress=events.append)
    assert _RecordingPool.submitted == ["d", "b", "c", "a", "e"]
    assert [e.name for e in events if e.kind == "start"] == ["d", "b", "c", "a", "e"]
    assert [r["name"] for r in out.results] == ["a", "b", "c", "d", "e", "b"]
    assert out.results[1] is out.results[5]
    assert out.failures == []


def test_empty_job_list():
    out = run_jobs([])
    assert out.results == [] and out.failures == []
    assert out.stats.jobs == 0 and out.stats.misses == 0


# The tests above run fakes.quick_run; these two push real simulations
# through run_experiment and the process pool.


def test_pool_matches_inline_real_simulation():
    jobs = [Job(scenario(i)) for i in range(2)]
    inline = run_jobs(jobs, workers=1).results
    pooled = run_jobs(jobs, workers=2).results
    assert [r.scenario.name for r in inline] == ["s0", "s1"]
    assert all(r.aggregate_goodput_bps > 0 for r in inline)
    assert [r.queue_drops for r in inline] == [r.queue_drops for r in pooled]
    assert [
        [f.goodput_bps for f in r.flows] for r in inline
    ] == [[f.goodput_bps for f in r.flows] for r in pooled]


def test_unknown_cca_fails_in_pool_and_other_results_survive():
    bad = scenario(0, name="bad").with_overrides(
        groups=(FlowGroup("no-such-cca", 1, 0.02),)
    )
    jobs = [Job(scenario(0)), Job(bad), Job(scenario(1))]
    with pytest.raises(SweepError) as excinfo:
        run_jobs(jobs, workers=2)
    err = excinfo.value
    # One deterministic failure, never retried; the other results survive.
    assert [f.name for f in err.failures] == ["bad"]
    assert err.failures[0].kind == "error"
    assert "unknown CCA" in err.failures[0].error
    assert err.results[0] is not None and err.results[2] is not None
    assert err.results[1] is None


# A fresh interpreter: import the package, run one simulation directly
# and one inline through run_jobs, then list what of the pool stack got
# loaded on the way.
_INLINE_ONLY = """
import sys
import repro
from repro.core.scenarios import FlowGroup, Scenario
from repro.runstore import Job, run_jobs
from repro.units import mbps

scenario = Scenario(
    name="inline", bottleneck_bw_bps=mbps(10), buffer_bytes=100_000,
    groups=(FlowGroup("newreno", 1, 0.02),), duration=0.3, warmup=0.1,
    stagger_max=0.0, seed=1,
)
assert repro.run_experiment(scenario).events_processed > 0
assert run_jobs([Job(scenario)], workers=1).ok
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_inline_runs_never_import_the_pool():
    """Only a pool run loads concurrent.futures and multiprocessing; the
    pool tests above cover workers=2."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    child = subprocess.run(
        [sys.executable, "-c", _INLINE_ONLY],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
