"""Tests for structured JSONL trace export."""

import json

import pytest

from repro.core.results import RunHealth
from repro.faults.watchdog import SimWatchdog, WatchdogConfig
from repro.instrumentation.flowmon import FlowMonitor
from repro.obs.bus import EventBus
from repro.obs.tracing import TraceRecorder, health_rows, trace_jsonl
from repro.sim.engine import Simulator
from repro.sim.queue import DropTailQueue
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe
from tests.packets import make_packet


class _Result:
    def __init__(self, health):
        self.health = health


def test_rejects_bad_cap():
    with pytest.raises(ValueError):
        TraceRecorder(EventBus(), max_events=0)


def test_records_cwnd_rows_with_warmup_cut(sim):
    bus = EventBus()
    recorder = TraceRecorder(bus, start_time=0.05)
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=40)
    bus.bind_sender(sender)
    sender.start()
    sim.run(until=5.0)
    assert recorder.events
    assert all(row["t"] >= 0.05 for row in recorder.events)
    row = recorder.events[0]
    assert row["topic"] == "cwnd"
    assert row["flow"] == 0
    assert row["kind"] in ("ack", "loss_event", "rto")
    assert recorder.summary()["by_topic"]["cwnd"] == len(recorder.events)


def test_records_queue_and_fault_rows():
    bus = EventBus()
    recorder = TraceRecorder(bus)
    queue = DropTailQueue(2000)
    bus.bind_queue(queue)
    for seq in range(3):
        queue.offer(0.1, make_packet(flow_id=4, seq=seq, size=1000))
    bus.publish("fault", 0.2, "link down")
    topics = [row["topic"] for row in recorder.events]
    assert topics == ["enqueue", "enqueue", "drop", "fault"]
    assert recorder.events[2]["flow"] == 4
    assert recorder.events[3]["desc"] == "link down"


def test_fault_rows_are_never_warmup_cut():
    bus = EventBus()
    recorder = TraceRecorder(bus, start_time=10.0)
    bus.publish("fault", 0.5, "early fault")
    assert recorder.events == [{"t": 0.5, "topic": "fault", "desc": "early fault"}]


def test_max_events_caps_memory():
    bus = EventBus()
    recorder = TraceRecorder(bus, max_events=2)
    for i in range(5):
        bus.publish("fault", float(i), f"f{i}")
    assert len(recorder.events) == 2
    assert recorder.dropped_events == 3
    assert recorder.summary()["dropped"] == 3


def test_jsonl_round_trip():
    bus = EventBus()
    recorder = TraceRecorder(bus)
    queue = DropTailQueue(2000)
    bus.bind_queue(queue)
    queue.offer(0.5, make_packet(flow_id=2, seq=9, size=1000))
    bus.publish("fault", 1.0, "x")
    text = trace_jsonl(recorder, _Result(None))
    assert text.endswith("\n") and " " not in text  # compact, newline-terminated
    assert [json.loads(line) for line in text.splitlines()] == recorder.events


def test_trace_jsonl_appends_health():
    bus = EventBus()
    recorder = TraceRecorder(bus)
    bus.publish("fault", 1.0, "link down")
    health = RunHealth(
        ok=False,
        reason="stall",
        truncated_at=9.0,
        stalled_flows=[1, 2],
        fault_timeline=[(1.0, "link down")],
    )
    rows = [
        json.loads(line)
        for line in trace_jsonl(recorder, _Result(health)).splitlines()
    ]
    assert len(rows) == 3  # fault event + health row + timeline row
    health_row = rows[1]
    assert health_row["topic"] == "health"
    assert health_row["reason"] == "stall"
    assert health_row["stalled_flows"] == [1, 2]
    assert rows[2] == {"t": 1.0, "topic": "fault", "desc": "link down"}


def test_health_rows_empty_without_health():
    assert health_rows(_Result(None)) == []


def test_cwnd_rows_match_live_sender_stats(sim):
    # The trace is the cwnd log: its loss_event rows are the sender's
    # halvings and its ack rows are the ACKs the sender processed.
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=300, drop_indices={40})
    bus = EventBus()
    bus.bind_sender(sender)
    recorder = TraceRecorder(bus)
    sender.start()
    sim.run(until=20.0)
    assert sender.completed
    kinds = [row["kind"] for row in recorder.events if row["topic"] == "cwnd"]
    assert kinds.count("loss_event") == sender.stats.halvings == 1
    assert kinds.count("ack") == sender.stats.acks_received


def _lossy_run(sim, observe=None):
    """One deterministic lossy flow; ``observe(sender, bus)`` wires
    observers before the run starts (no bus at all when omitted)."""
    sender, _, _ = make_pipe(
        sim, NewReno(), total_packets=400, drop_indices={40, 120, 250}
    )
    extras = None
    if observe is not None:
        bus = EventBus()
        bus.bind_sender(sender)
        extras = observe(sender, bus)
    sender.start()
    sim.run(until=30.0)
    assert sender.completed
    return sender, extras


def test_three_observers_coexist_with_identical_counts():
    # A trace recorder, the stall watchdog and an ad-hoc cwnd sampler
    # all watch ONE sender; the recorder's congestion rows match the
    # sender's own counters and an unobserved baseline run.
    baseline, _ = _lossy_run(Simulator())
    assert baseline.stats.congestion_events > 0

    sim = Simulator()
    sampled = {"acks": 0, "cwnd": []}

    def wire(sender, bus):
        recorder = TraceRecorder(bus)
        monitor = FlowMonitor(sim, [sender])
        dog = SimWatchdog(sim, monitor, [0.0], config=WatchdogConfig(stall_budget=5.0))
        dog.arm()

        def sample(now, fid, kind, cwnd):
            if kind == "ack":
                sampled["acks"] += 1
            sampled["cwnd"].append(cwnd)

        bus.subscribe("cwnd", sample)
        return recorder, dog

    sender, (recorder, dog) = _lossy_run(sim, wire)

    # All three observers saw the run...
    assert sampled["acks"] == sender.stats.acks_received > 0
    assert len(sampled["cwnd"]) == len(recorder.events)
    assert dog.checks > 0 and not dog.aborted
    # ...and the recorder's counts are the sender's and the baseline's.
    kinds = [row["kind"] for row in recorder.events]
    assert kinds.count("loss_event") == sender.stats.halvings == baseline.stats.halvings
    assert kinds.count("rto") == sender.stats.rtos == baseline.stats.rtos
    # The simulation itself was untouched by observation.
    assert sender.snd_una == baseline.snd_una
    assert sender.stats.congestion_events == baseline.stats.congestion_events
