"""Tests for progress events and sweep counters."""

from repro.core.results import RunHealth
from repro.runstore.progress import JobEvent, SweepStats


class _Result:
    def __init__(self, health=None):
        self.health = health


def test_job_event_to_json_minimal():
    event = JobEvent(kind="hit", key="abc123", name="tiny")
    assert event.to_json() == {
        "kind": "hit",
        "key": "abc123",
        "name": "tiny",
        "attempt": 1,
    }


def test_job_event_to_json_carries_timings_and_errors():
    event = JobEvent(
        kind="retry", key="k", name="n", attempt=2,
        wall_seconds=1.5, events=3000, error="worker timeout",
    )
    row = event.to_json()
    assert row["attempt"] == 2
    assert row["wall_seconds"] == 1.5
    assert row["events"] == 3000
    assert row["error"] == "worker timeout"


def test_job_event_to_json_inlines_degraded_health():
    health = RunHealth(ok=False, reason="stall", truncated_at=12.0,
                       stalled_flows=[3])
    event = JobEvent(kind="degraded", key="k", name="n",
                     payload=_Result(health))
    row = event.to_json()
    assert row["health"]["reason"] == "stall"
    assert row["health"]["stalled_flows"] == [3]
    # A healthy payload contributes no health key.
    ok = JobEvent(kind="done", key="k", name="n", payload=_Result(None))
    assert "health" not in ok.to_json()


def test_sweep_stats_observe_folds_event_kinds():
    stats = SweepStats(jobs=3, unique=2)
    stats.observe(JobEvent(kind="hit", key="a", name="x"))
    stats.observe(JobEvent(kind="done", key="b", name="y",
                           wall_seconds=2.0, events=1000))
    stats.observe(JobEvent(kind="degraded", key="c", name="z"))
    assert stats.hits == 1
    assert stats.misses == 2
    assert stats.degraded == 1
    assert stats.events == 1000
    assert stats.deduplicated == 1
