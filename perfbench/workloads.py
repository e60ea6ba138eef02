"""The benchmark's workloads: what each runs, times, checks and traces.

Every workload derives its inputs from the ``--seed`` argument only, so
the same seed always simulates the same scenarios. A workload has two
modes:

- :meth:`timed` runs the timed unit back to back for the requested
  number of seconds with tracing off and returns the end-to-end
  metrics (medians over the units);
- :meth:`traced` runs separate passes under cProfile and the entry
  wrappers and returns the per-layer metrics.

Both modes check every result they produce (see :mod:`checks`).
"""

from __future__ import annotations

import hashlib
import heapq
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from checks import Tally, digest_problems, result_problems
from layers import LAYERS, EntryTimers, LayerProfile, entry_wrappers, profile_call

from repro.core.experiment import run_experiment
from repro.core.goldens import result_digest
from repro.core.scenarios import FlowGroup, Scenario, core_scale, edge_scale
from repro.runstore import Job, RunStore, run_jobs

#: Set-up is repeated this many times per invocation; its median is ``setup_s``.
SETUP_ROUNDS = 3
#: Fewest timed units a run makes, however short ``--seconds`` is.
MIN_UNITS = 3
#: Fewest traced passes per traced run (their call counts must agree exactly).
TRACED_PASSES = 2
#: Panel seeds a single-run workload's traced pass profiles.
TRACED_SEEDS = 4
#: Pool workers for the ``sweep`` workload's timed batch.
SWEEP_WORKERS = 2

#: Iterations of the host-speed calibration loop, and the loop's time on
#: the reference host (the unit of every ``*_s`` metric).
CALIBRATION_ITERATIONS = 40_000
REFERENCE_CALIBRATION_S = 0.050

#: What a fresh interpreter imports before it can run any workload.
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro.core.experiment, repro.core.goldens, repro.runstore"
)

Metrics = Dict[str, float]


def _now() -> float:
    return time.perf_counter()


def peak_rss_mb(children_counted: int = 0) -> float:
    """Peak resident memory of this process, plus ``children_counted``
    times the largest peak among its reaped child processes (an upper
    bound on memory held at once by a pool of that many workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children_counted * child) / 1024.0


def calibration_s() -> float:
    """Seconds this host takes for a fixed pure-Python loop, averaged
    over every CPU this process may run on (each pinned in turn).

    The loop touches nothing in the package under test (heap pushes and
    pops, slotted attribute updates, float arithmetic), so it measures
    how fast the host runs Python right now. Never change it: it is the
    yardstick every recorded ``*_s`` metric is scaled by.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        return _calibration_loop_s()
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_calibration_loop_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


def _calibration_loop_s() -> float:
    heap: List[Tuple[float, int]] = []
    cells = [_Cell() for _ in range(64)]
    start = _now()
    for i in range(CALIBRATION_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.001, i))
        cells[i & 63].bump(i * 0.5)
        if len(heap) > 128:
            heapq.heappop(heap)
    return _now() - start


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0

    def bump(self, x: float) -> float:
        self.total += x
        return self.total


class HostClock:
    """Times spans in reference seconds.

    Shared hosts change speed from minute to minute (other tenants'
    load, frequency scaling), which moves raw wall times by tens of
    percent for identical work. Each span is bracketed by two runs of
    :func:`calibration_s` and scaled by ``REFERENCE_CALIBRATION_S /
    mean(before, after)``: the seconds the span would have taken on a
    host where the calibration loop takes the reference time.
    """

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.calibration: List[float] = []

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        before = calibration_s()
        start = _now()
        out = fn()
        raw = _now() - start
        host = (before + calibration_s()) / 2.0
        self.raw.append(raw)
        self.calibration.append(host)
        return out, raw * REFERENCE_CALIBRATION_S / host


def reap_children(timeout: float = 30.0) -> None:
    """Join every multiprocessing child this process started."""
    import multiprocessing

    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout)


def import_in_fresh_interpreter(src_root: str) -> None:
    """Start a fresh interpreter that imports the package, and wait for it."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, src_root], check=True, timeout=60)


def batch_digest(digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def work_counts(dumbbells: Sequence[Any]) -> Metrics:
    """Whole-run work counters read off the simulated objects."""
    acks = retransmits = rtos = halvings = arrivals = drops = 0
    for dumbbell in dumbbells:
        for flow in dumbbell.flows:
            stats = flow.sender.stats
            acks += stats.acks_received
            retransmits += stats.retransmits
            rtos += stats.rto_events
            halvings += stats.loss_recovery_events
        queue = dumbbell.queue
        arrivals += queue.enqueued_packets + queue.dropped_packets
        drops += queue.dropped_packets
    return {
        "connection.acks": acks,
        "connection.retransmits": retransmits,
        "connection.rtos": rtos,
        "connection.halvings": halvings,
        "queue.arrivals": arrivals,
        "queue.drops": drops,
        "queue.drop_ratio": drops / arrivals if arrivals else 0.0,
    }


def trace_metrics(
    profiles: List[LayerProfile], timers: List[EntryTimers], traced_walls: List[float],
    events: int, untraced_s: float, tally: Tally,
) -> Metrics:
    """Per-layer metrics shared by every workload's traced run.

    Self times are medians over the traced passes; call counts come from
    the first pass, and every later pass must repeat them exactly (a
    mismatch is counted as a failed operation). Work counts come from
    the simulated objects the last pass built.
    """
    first = profiles[0]
    for other in profiles[1:]:
        tally.record(
            [] if other.calls == first.calls and other.bbr_calls == first.bbr_calls
            else ["call counts differ between two traced passes of the same input"]
        )
    metrics: Metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(p.self_s[layer] for p in profiles)
        metrics[f"{layer}.calls"] = first.calls[layer]
    metrics["cca.bbr_calls"] = first.bbr_calls
    metrics["calls_per_event"] = first.total_calls / events
    metrics["engine.events"] = events
    metrics["engine.events_per_s"] = events / untraced_s
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / untraced_s
    metrics["topology.build_s"] = statistics.median(t.build_s for t in timers)
    counts = work_counts(timers[-1].dumbbells)
    metrics.update(counts)
    metrics["rangeset.calls_per_ack"] = first.calls["rangeset"] / counts["connection.acks"]
    return metrics


class Workload:
    """Base class: set-up rounds and the shared report plumbing."""

    name = ""

    def __init__(self, seed: int, src_root: str, tmp_root: str) -> None:
        self.seed = seed
        self.src_root = src_root
        self.tmp_root = tmp_root
        #: Informational figures printed beside the metrics (not metrics).
        self.info: Dict[str, float] = {}

    def note_clock(self, clock: "HostClock") -> None:
        """Keep the unscaled unit time and the host's calibration time."""
        self.info["raw_unit_s_median"] = statistics.median(clock.raw)
        self.info["calibration_s_median"] = statistics.median(clock.calibration)

    def prepare(self) -> None:
        """Build inputs and run the untimed warm-up (one set-up round)."""
        raise NotImplementedError

    def setup(self, clock: "HostClock") -> float:
        """Median time of :data:`SETUP_ROUNDS` complete set-ups.

        A round is everything between nothing and the first timed unit:
        a fresh interpreter importing the package, then building the
        inputs and the untimed warm-up in this process.
        """
        def one_round() -> None:
            import_in_fresh_interpreter(self.src_root)
            self.prepare()

        return statistics.median(clock.time(one_round)[1] for _ in range(SETUP_ROUNDS))

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.tmp_root)


class SingleRun(Workload):
    """One ``run_experiment`` is the timed unit.

    A run makes whole passes over a panel of :attr:`panel` scenario
    seeds derived from ``--seed``, as many as fit in ``--seconds`` (at
    least one), and reports the mean over the panel of each seed's
    median unit time. Where seeds fall into different regimes (a Cubic
    buffer overflow that some seeds hit and others miss), the panel
    makes the figure an average over regimes instead of a draw of one.
    """

    #: (duration, warm-up) simulated seconds of the timed unit.
    run_length: Tuple[float, float] = (0.0, 0.0)
    #: (duration, warm-up) of the untimed interpreter warm-up run.
    warm_length: Tuple[float, float] = (0.0, 0.0)
    #: Scenario seeds per pass.
    panel = 1

    def scenario(self, seed: int, duration: float, warmup: float) -> Scenario:
        raise NotImplementedError

    def prepare(self) -> None:
        seeds = [self.seed * self.panel + i for i in range(self.panel)]
        self.inputs = [self.scenario(s, *self.run_length) for s in seeds]
        run_experiment(self.scenario(seeds[0], *self.warm_length))

    def timed(self, seconds: float, tally: Tally) -> Tuple[Metrics, str]:
        setup_s = self.setup(HostClock())
        clock = HostClock()
        times: List[List[float]] = [[] for _ in self.inputs]
        expected: List[str] = []
        begin = _now()
        passes = 0
        # Start another pass only while one more of average length still fits.
        while passes * self.panel < MIN_UNITS or (_now() - begin) * (passes + 1) / passes <= seconds:
            for k, scenario in enumerate(self.inputs):
                result, elapsed = clock.time(lambda: run_experiment(scenario))
                times[k].append(elapsed)
                digest = result_digest(result)
                if passes == 0:
                    expected.append(digest)
                tally.record(result_problems(result) + digest_problems(digest, expected[k], "repeat run"))
                del result
            passes += 1
        if passes == 1:
            # Every seed ran once: repeat one, untimed, so determinism is still checked.
            repeat = result_digest(run_experiment(self.inputs[0]))
            tally.record(digest_problems(repeat, expected[0], "repeat run"))
        metrics = {
            "wall_s": statistics.mean(statistics.median(t) for t in times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        self.note_clock(clock)
        return metrics, batch_digest(expected)

    def traced(self, seconds: float, tally: Tally) -> Tuple[Metrics, str]:
        """Profile whole passes over the first :data:`TRACED_SEEDS` seeds
        of the panel, so the per-layer figures describe the kind of work
        the timed run averages."""
        self.prepare()
        inputs = self.inputs[:TRACED_SEEDS]
        start = _now()
        results = [run_experiment(scenario) for scenario in inputs]
        untraced = _now() - start
        expected = [result_digest(result) for result in results]
        for result in results:
            tally.record(result_problems(result))
        events = sum(result.events_processed for result in results)
        del results

        profiles: List[LayerProfile] = []
        timers: List[EntryTimers] = []
        walls: List[float] = []
        begin = _now()
        while len(profiles) < TRACED_PASSES or _now() - begin < seconds:
            if timers:
                timers[-1].dumbbells.clear()  # only the last pass's are read
            timers.append(EntryTimers())
            with entry_wrappers(timers[-1]):
                results, profile, wall = profile_call(
                    lambda: [run_experiment(scenario) for scenario in inputs], self.src_root
                )
            for result, digest in zip(results, expected):
                tally.record(
                    result_problems(result)
                    + digest_problems(result_digest(result), digest, "traced run")
                )
            profiles.append(profile)
            walls.append(wall)
            del results
        metrics = trace_metrics(profiles, timers, walls, events, untraced, tally)
        metrics.update(_zero_orchestration())
        return metrics, batch_digest(expected)


def _zero_orchestration() -> Metrics:
    """Run-store and sweep metrics of a workload that never uses them."""
    return {
        "runstore.put_s": 0.0,
        "runstore.get_s": 0.0,
        "runstore.result_bytes": 0,
        "sweep.worker_util": 0.0,
        "sweep.pool_overhead_s": 0.0,
        "sweep.job_s_p50": 0.0,
        "sweep.hits": 0,
        "sweep.retries": 0,
    }


class CoreLoss(SingleRun):
    """CoreScale's densest point (5000 flows / 50) at a 0.25-BDP buffer."""

    name = "core-loss"
    run_length = (4.0, 1.5)
    warm_length = (0.5, 0.2)

    def scenario(self, seed: int, duration: float, warmup: float) -> Scenario:
        base = core_scale(flows=5000, cca="newreno", scale=50, duration=duration, warmup=warmup, seed=seed)
        return base.with_overrides(name="core-loss", buffer_bytes=base.buffer_bytes // 4)


class EdgeBbr(SingleRun):
    """EdgeScale, 3 MB buffer: 10 BBR flows against 10 Cubic flows."""

    name = "edge-bbr"
    run_length = (6.0, 2.0)
    warm_length = (0.5, 0.2)
    panel = 16

    def scenario(self, seed: int, duration: float, warmup: float) -> Scenario:
        base = edge_scale(flows=20, cca="bbr", duration=duration, warmup=warmup, seed=seed)
        groups = (FlowGroup("bbr", 10, 0.020), FlowGroup("cubic", 10, 0.020))
        return base.with_overrides(name="edge-bbr", groups=groups)


class Sweep(Workload):
    """A cold batch of short mixed jobs through ``run_jobs``, then a warm pass."""

    name = "sweep"

    def batch(self, seed: int) -> List[Job]:
        jobs = []
        for offset in (0, 1):
            s = seed * 2 + offset
            jobs += [
                Job(edge_scale(flows=10, cca="newreno", duration=1.0, warmup=0.3, seed=s)),
                Job(edge_scale(flows=10, cca="cubic", duration=2.0, warmup=0.5, seed=s)),
                Job(core_scale(flows=1000, cca="newreno", scale=50, duration=1.0, warmup=0.3, seed=s)),
                Job(core_scale(flows=1000, cca="cubic", scale=50, duration=2.0, warmup=0.5, seed=s)),
            ]
        return jobs

    def prepare(self) -> None:
        self.jobs = self.batch(self.seed)
        warm = [Job(edge_scale(flows=2, cca="newreno", duration=0.5, warmup=0.2, seed=self.seed))]
        store_dir = self.fresh_dir()
        run_jobs(warm, store=RunStore(store_dir), workers=1)
        shutil.rmtree(store_dir)

    def _check(self, outcome: Any, expected: Optional[List[str]], what: str, tally: Tally) -> List[str]:
        """Check every job result of one ``run_jobs`` outcome; returns digests."""
        failures = {f.key: f.render() for f in outcome.failures}
        digests = []
        for i, (job, result) in enumerate(zip(self.jobs, outcome.results)):
            if result is None:
                tally.record([f"{what} job {i} failed: {failures.get(job.key(), 'no result')}"])
                digests.append("")
                continue
            digest = result_digest(result)
            digests.append(digest)
            tally.record(
                result_problems(result)
                + digest_problems(digest, expected[i] if expected else None, f"{what} job {i}")
            )
        return digests

    def _cold_and_warm(
        self, workers: int, tally: Tally, expected: Optional[List[str]],
        timed_fn: Optional[Callable[[Callable[[], Any]], Tuple[Any, float]]] = None,
    ) -> Dict[str, Any]:
        """One cold batch into a fresh store, then the same batch warm."""
        store_dir = self.fresh_dir()
        store = RunStore(store_dir)
        events: List[Any] = []
        call = lambda: run_jobs(  # noqa: E731
            self.jobs, store=store, workers=workers, strict=False, progress=events.append,
        )
        if timed_fn is None:
            start = _now()
            cold_out = call()
            wall = _now() - start
        else:
            cold_out, wall = timed_fn(call)
        reap_children()
        cold = self._check(cold_out, expected, "cold", tally)
        result_bytes = sum(
            os.path.getsize(os.path.join(store.objects_dir, name))
            for name in os.listdir(store.objects_dir)
        )
        warm_out = run_jobs(self.jobs, store=store, workers=workers, strict=False)
        reap_children()
        self._check(warm_out, cold, "warm", tally)
        if warm_out.stats.hits != len(set(job.key() for job in self.jobs)):
            tally.record([f"warm pass served {warm_out.stats.hits} hits, expected every job"])
        shutil.rmtree(store_dir)
        return {
            "wall": wall, "cold": cold_out, "warm": warm_out, "digests": cold,
            "result_bytes": result_bytes,
            "job_walls": [e.wall_seconds for e in events if e.kind in ("done", "degraded")],
        }

    def timed(self, seconds: float, tally: Tally) -> Tuple[Metrics, str]:
        setup_s = self.setup(HostClock())
        clock = HostClock()
        walls: List[float] = []
        expected: Optional[List[str]] = None
        begin = _now()
        while len(walls) < MIN_UNITS or _now() - begin < seconds:
            batch = self._cold_and_warm(SWEEP_WORKERS, tally, expected, timed_fn=clock.time)
            walls.append(batch["wall"])
            expected = expected or batch["digests"]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(children_counted=SWEEP_WORKERS),
        }
        self.note_clock(clock)
        return metrics, batch_digest(expected or [])

    def traced(self, seconds: float, tally: Tally) -> Tuple[Metrics, str]:
        self.prepare()
        pooled = self._cold_and_warm(SWEEP_WORKERS, tally, None)
        expected = pooled["digests"]
        stats = pooled["cold"].stats
        busy = sum(pooled["job_walls"])
        inline = self._cold_and_warm(1, tally, expected)
        events = sum(r.events_processed for r in inline["cold"].results if r is not None)

        profiles: List[LayerProfile] = []
        timers: List[EntryTimers] = []
        walls: List[float] = []
        begin = _now()
        while len(profiles) < TRACED_PASSES or _now() - begin < seconds:
            if timers:
                timers[-1].dumbbells.clear()  # only the last pass's are read
            timers.append(EntryTimers())

            def profiled(call: Callable[[], Any]) -> Tuple[Any, float]:
                out, profile, wall = profile_call(call, self.src_root)
                profiles.append(profile)
                return out, wall

            with entry_wrappers(timers[-1]):
                traced = self._cold_and_warm(1, tally, expected, timed_fn=profiled)
            walls.append(traced["wall"])
        metrics = trace_metrics(profiles, timers, walls, events, inline["wall"], tally)
        metrics["runstore.put_s"] = statistics.median(t.put_s for t in timers)
        metrics["runstore.get_s"] = statistics.median(t.get_s for t in timers)
        metrics["runstore.result_bytes"] = traced["result_bytes"]
        elapsed = stats.elapsed_seconds
        metrics["sweep.worker_util"] = busy / (elapsed * SWEEP_WORKERS)
        metrics["sweep.pool_overhead_s"] = elapsed - busy / SWEEP_WORKERS
        metrics["sweep.job_s_p50"] = statistics.median(pooled["job_walls"])
        metrics["sweep.hits"] = pooled["warm"].stats.hits
        metrics["sweep.retries"] = stats.retries
        return metrics, batch_digest(expected)


WORKLOADS: Dict[str, Callable[[int, str, str], Workload]] = {
    CoreLoss.name: CoreLoss,
    EdgeBbr.name: EdgeBbr,
    Sweep.name: Sweep,
}
