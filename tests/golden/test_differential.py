"""Differential tests: alternate execution modes must not change results.

Three equivalences the optimized engine must preserve:

- a run paused by its ``max_events`` budget and then resumed executes
  the exact same event sequence as one uninterrupted ``run()``;
- a sanitized run (``REPRO_SANITIZE=1``) produces a byte-identical
  result digest and the same event count as a bare run — the sanitizer
  observes, never perturbs;
- a profiled run (``repro ... --profile`` wires a
  :class:`~repro.obs.profiler.SimProfiler`) matches a bare run in both
  for the same reason.

A sanitized run must also check every event it pushes: the link and
netem elements push onto the heap directly, not through
``Simulator.schedule``, and report each push themselves.

The digest is the golden-corpus sha256 over the canonical result JSON,
which covers every float bit and every physical counter but not
``events_processed``; each test compares the event count as well, so
"equal" here means both.
"""

from __future__ import annotations

import json

from repro.core.goldens import HASHES_PATH, golden_scenarios, result_digest, run_golden
from repro.core.experiment import run_experiment
from repro.core.scenarios import edge_scale
from repro.lint.sanitizer import SimSanitizer
from repro.obs.profiler import SimProfiler
from repro.sim.engine import Simulator
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe


def _fingerprint(result):
    """The result digest with the event count it leaves out."""
    return result_digest(result), result.events_processed


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
    bare = _fingerprint(run_experiment(scenario))
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = _fingerprint(run_experiment(scenario))
    assert sanitized == bare


def test_profiled_run_is_digest_equal():
    scenario = _small_scenario()
    bare = _fingerprint(run_experiment(scenario))
    profiler = SimProfiler()
    profiled_result = run_experiment(scenario, profiler=profiler)
    assert _fingerprint(profiled_result) == bare
    assert profiler.events > 0  # the profiler really was installed


def test_sanitized_golden_run_checks_every_push(monkeypatch):
    """Every event a sanitized run pushes reaches ``on_schedule``: the
    count of checks equals the final value of the simulator's sequence
    stream, so a direct push that skips the sanitizer fails here."""
    sanitizers = []
    checked = []
    init = SimSanitizer.__init__
    on_schedule = SimSanitizer.on_schedule

    def recording_init(self, sim):
        init(self, sim)
        sanitizers.append(self)

    def counting_on_schedule(self, time):
        checked.append(time)
        on_schedule(self, time)

    monkeypatch.setattr(SimSanitizer, "__init__", recording_init)
    monkeypatch.setattr(SimSanitizer, "on_schedule", counting_on_schedule)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    result, digest, _ = run_golden(golden_scenarios()["golden-bbr-mix"])
    [sanitizer] = sanitizers
    pushed = sanitizer.sim.next_seq() - 1
    assert len(checked) == pushed > 40_000
    with open(HASHES_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["scenarios"]["golden-bbr-mix"]
    assert (digest, result.events_processed) == (expected["result_sha256"], expected["events"])
