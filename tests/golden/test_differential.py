"""Differential tests: alternate execution modes must not change results.

Three equivalences the optimized engine must preserve:

- a run paused by its ``max_events`` budget and then resumed executes
  the exact same event sequence as one uninterrupted ``run()``;
- a sanitized run (``REPRO_SANITIZE=1``) produces a byte-identical
  result digest to a bare run — the sanitizer observes, never perturbs;
- a profiled run (``repro ... --profile`` wires a
  :class:`~repro.obs.profiler.SimProfiler`) is digest-equal to a bare
  run for the same reason.

The digest is the golden-corpus sha256 over the canonical result JSON,
so "equal" here means every float bit and every counter.
"""

from __future__ import annotations

from repro.core.goldens import result_digest
from repro.core.experiment import run_experiment
from repro.core.scenarios import edge_scale
from repro.obs.profiler import SimProfiler
from repro.sim.engine import Simulator
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe


def _small_scenario():
    return edge_scale(
        flows=4, cca="newreno", duration=2.0, warmup=0.5, seed=11
    ).with_overrides(name="diff-small")


def _pipe_fingerprint(sim, sender, receiver):
    return {
        "now": sim.now,
        "events": sim.events_processed,
        "completed": sender.completed,
        "packets_sent": sender.stats.packets_sent,
        "retransmits": sender.stats.retransmits,
        "snd_una": sender.snd_una,
        "srtt": sender.rtt.srtt,
        "acks_sent": receiver.acks_sent,
        "received": receiver.received_packets,
    }


def test_paused_and_resumed_run_matches_run(sim):
    """A run cut short by its event budget, then resumed, lands in the
    same state as a single run()."""
    sender_a, receiver_a, _ = make_pipe(sim, NewReno(), total_packets=200)
    sender_a.start()
    sim.run(until=20.0)

    sim_b = Simulator(sanitize=False)
    sender_b, receiver_b, _ = make_pipe(sim_b, NewReno(), total_packets=200)
    sender_b.start()
    sim_b.run(max_events=137)
    assert sim_b.events_processed == 137
    sim_b.run(until=20.0)

    assert _pipe_fingerprint(sim, sender_a, receiver_a) == _pipe_fingerprint(
        sim_b, sender_b, receiver_b
    )


def test_sanitized_run_is_digest_equal(monkeypatch):
    scenario = _small_scenario()
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    bare = result_digest(run_experiment(scenario))
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = result_digest(run_experiment(scenario))
    assert sanitized == bare


def test_profiled_run_is_digest_equal():
    scenario = _small_scenario()
    bare = result_digest(run_experiment(scenario))
    profiler = SimProfiler()
    profiled_result = run_experiment(scenario, profiler=profiler)
    assert result_digest(profiled_result) == bare
    assert profiler.events > 0  # the profiler really was installed
