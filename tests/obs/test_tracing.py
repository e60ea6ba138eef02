"""Tests for structured JSONL trace export."""

import io
import json

import pytest

from repro.core.results import RunHealth
from repro.obs.bus import EventBus
from repro.obs.tracing import (
    TraceRecorder,
    health_rows,
    write_jsonl,
    write_trace_jsonl,
)
from repro.sim.packet import Packet
from repro.sim.queue import DropTailQueue
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe


class _Result:
    def __init__(self, health):
        self.health = health


def test_rejects_unknown_topics_and_bad_cap():
    bus = EventBus()
    with pytest.raises(ValueError):
        TraceRecorder(bus, topics=("cwnd", "nope"))
    with pytest.raises(ValueError):
        TraceRecorder(bus, max_events=0)


def test_records_cwnd_rows_with_warmup_cut(sim):
    bus = EventBus()
    recorder = TraceRecorder(bus, topics=("cwnd",), start_time=0.05)
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
        queue.offer(0.1, Packet(flow_id=4, seq=seq, size=1000))
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
    recorder = TraceRecorder(bus, topics=("fault",), max_events=2)
    for i in range(5):
        bus.publish("fault", float(i), f"f{i}")
    assert len(recorder.events) == 2
    assert recorder.dropped_events == 3
    assert recorder.summary()["dropped"] == 3


def test_jsonl_round_trip():
    rows = [{"t": 1.0, "topic": "fault", "desc": "x"}, {"t": 2.0, "topic": "cwnd"}]
    buf = io.StringIO()
    assert write_jsonl(rows, buf) == 2
    assert [json.loads(line) for line in buf.getvalue().splitlines()] == rows


def test_write_trace_jsonl_appends_health(tmp_path):
    bus = EventBus()
    recorder = TraceRecorder(bus, topics=("fault",))
    bus.publish("fault", 1.0, "link down")
    health = RunHealth(
        ok=False,
        reason="stall",
        truncated_at=9.0,
        stalled_flows=[1, 2],
        fault_timeline=[(1.0, "link down")],
    )
    dest = str(tmp_path / "trace.jsonl")
    written = write_trace_jsonl(recorder, dest, result=_Result(health))
    with open(dest) as fh:
        rows = [json.loads(line) for line in fh]
    assert written == len(rows) == 3  # fault event + health row + timeline row
    health_row = rows[1]
    assert health_row["topic"] == "health"
    assert health_row["reason"] == "stall"
    assert health_row["stalled_flows"] == [1, 2]
    assert rows[2] == {"t": 1.0, "topic": "fault", "desc": "link down"}


def test_health_rows_empty_without_health():
    assert health_rows(_Result(None)) == []
