"""Tests for progress events and sweep counters."""

from repro.runstore.progress import JobEvent, SweepStats


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
