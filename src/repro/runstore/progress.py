"""Progress events and sweep-level counters.

The scheduler narrates a sweep through a ``progress`` callback taking
:class:`JobEvent` instances and aggregates the same information into a
:class:`SweepStats` (the ``--json`` summary of ``repro run`` and the
last stdout line of ``benchmarks/findings.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

ProgressCallback = Callable[["JobEvent"], None]


@dataclass(frozen=True)
class JobEvent:
    """One scheduler observation about one job.

    ``kind`` is one of:

    - ``"hit"``    — result served from the store, no simulation;
    - ``"start"``  — job submitted for execution (attempt ``attempt``);
    - ``"done"``   — simulation finished and (if a store is attached)
      its result was persisted;
    - ``"degraded"`` — like ``done``, but the run was truncated by its
      watchdog or event budget; the (partial) result carries a
      ``health`` record explaining why;
    - ``"retry"``  — the job's worker process died, consuming one
      attempt, and the job was resubmitted;
    - ``"failed"`` — the job exhausted its attempts (or failed
      deterministically) and produced no result.
    """

    kind: str
    key: str
    name: str
    attempt: int = 1
    wall_seconds: float = 0.0
    events: int = 0
    error: str = ""
    #: The produced result, set on ``hit``/``done`` events (excluded
    #: from comparison/repr; it is a convenience for callbacks).
    payload: Any = field(default=None, compare=False, repr=False)

    @property
    def events_per_sec(self) -> float:
        """Simulator events processed per wall second for this job."""
        if self.wall_seconds <= 0.0 or self.events <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def render(self) -> str:
        """One human-readable progress line."""
        bits = [f"[{self.kind:>8s}]", self.name or self.key[:12]]
        if self.kind in ("done", "degraded", "failed", "retry") and self.attempt > 1:
            bits.append(f"attempt={self.attempt}")
        if self.wall_seconds > 0.0:
            bits.append(f"wall={self.wall_seconds:.2f}s")
        if self.events_per_sec > 0.0:
            bits.append(f"{self.events_per_sec / 1e3:.0f}k ev/s")
        if self.error:
            bits.append(self.error)
        return " ".join(bits)


@dataclass
class SweepStats:
    """Counters for one scheduler invocation."""

    jobs: int = 0            #: jobs requested (including duplicates)
    unique: int = 0          #: distinct cache keys among them
    hits: int = 0            #: unique keys served from the store
    misses: int = 0          #: unique keys that had to simulate
    degraded: int = 0        #: simulated keys truncated by watchdog/budget
    retries: int = 0         #: attempts consumed by worker crashes
    failures: int = 0        #: unique keys that produced no result
    wall_seconds: float = 0.0  #: summed per-job simulation wall time
    events: int = 0          #: summed simulator events processed
    elapsed_seconds: float = 0.0  #: end-to-end scheduler wall time

    @property
    def deduplicated(self) -> int:
        """Jobs answered by another identical job in the same sweep."""
        return self.jobs - self.unique

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulation throughput over summed job wall time."""
        if self.wall_seconds <= 0.0 or self.events <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def observe(self, event: JobEvent) -> None:
        """Fold one event into the counters."""
        if event.kind == "hit":
            self.hits += 1
        elif event.kind in ("done", "degraded"):
            self.misses += 1
            if event.kind == "degraded":
                self.degraded += 1
            self.wall_seconds += event.wall_seconds
            self.events += event.events
        elif event.kind == "retry":
            self.retries += 1
        elif event.kind == "failed":
            self.failures += 1

    def to_json(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "unique": self.unique,
            "deduplicated": self.deduplicated,
            "hits": self.hits,
            "misses": self.misses,
            "degraded": self.degraded,
            "retries": self.retries,
            "failures": self.failures,
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def summary(self) -> str:
        """A one-line digest (printed after sweeps)."""
        rate = self.events_per_sec
        bits = [
            f"jobs={self.jobs}",
            f"hits={self.hits}",
            f"misses={self.misses}",
        ]
        if self.deduplicated:
            bits.append(f"deduped={self.deduplicated}")
        if self.degraded:
            bits.append(f"degraded={self.degraded}")
        if self.retries:
            bits.append(f"retries={self.retries}")
        if self.failures:
            bits.append(f"failures={self.failures}")
        bits.append(f"sim_wall={self.wall_seconds:.2f}s")
        if rate > 0.0:
            bits.append(f"{rate / 1e3:.0f}k ev/s")
        return " ".join(bits)


def print_progress(event: JobEvent, stream: Optional[Any] = None) -> None:
    """A ready-made ``progress`` callback that prints each event."""
    print(event.render(), file=stream)
