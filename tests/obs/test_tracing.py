"""Tests for structured JSONL trace export."""

import json
import pickle
from collections import Counter

import pytest

from repro.core.experiment import run_experiment
from repro.core.results import RunHealth
from repro.core.scenarios import core_scale, edge_scale
from repro.faults.watchdog import WatchdogConfig
from repro.obs.bus import EventBus
from repro.obs.tracing import TraceRecorder, health_rows, trace_jsonl
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
    assert kinds.count("loss_event") == sender.stats.loss_recovery_events == 1
    assert kinds.count("ack") == sender.stats.acks_received


def test_three_observers_coexist_with_identical_counts():
    # A trace recorder, the stall watchdog and an ad-hoc cwnd sampler
    # all watch one lossy run; the recorder's congestion rows match the
    # run's FlowResult counts, and the result is an unobserved run's.
    scenario = edge_scale(flows=4, duration=4.0, warmup=1.0, seed=3).with_overrides(
        buffer_bytes=30_000
    )
    watchdog = WatchdogConfig(stall_budget=2.0)
    baseline = run_experiment(scenario, watchdog=watchdog)

    bus = EventBus()
    recorder = TraceRecorder(bus, start_time=scenario.warmup)
    sampled = []

    def sample(now, fid, kind, cwnd):
        if now >= scenario.warmup:
            sampled.append((fid, kind))

    bus.subscribe("cwnd", sample)
    observed = run_experiment(scenario, watchdog=watchdog, bus=bus)

    # All three observers saw the run...
    assert observed.health.ok and observed.health.stalled_flows == []
    rows = [(row["flow"], row["kind"]) for row in recorder.events if row["topic"] == "cwnd"]
    assert rows == sampled
    # ...the recorder's counts are the run's...
    for flow in observed.flows:
        kinds = [kind for fid, kind in rows if fid == flow.flow_id]
        assert kinds.count("loss_event") == flow.halvings
        assert kinds.count("rto") == flow.rtos
    assert sum(f.congestion_events for f in observed.flows) > 0
    # ...and the simulation itself was untouched by observation.
    assert pickle.dumps(observed) == pickle.dumps(baseline)


def test_queue_rows_match_the_windowed_counts():
    # The recorder's start_time filter cuts the trace on its own; its
    # enqueue/drop rows must be the run's windowed queue counts.
    base = core_scale(flows=1000, scale=100, duration=1.5, warmup=0.5, seed=2)
    scenario = base.with_overrides(buffer_bytes=base.buffer_bytes // 4)
    bus = EventBus()
    recorder = TraceRecorder(bus, start_time=scenario.warmup)
    result = run_experiment(scenario, bus=bus)
    rows = Counter((row["topic"], row["flow"]) for row in recorder.events)
    assert result.queue_drops > 0
    for flow in result.flows:
        assert (rows["enqueue", flow.flow_id], rows["drop", flow.flow_id]) == (
            flow.queue_arrivals, flow.queue_drops,
        )
