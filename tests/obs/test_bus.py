"""Tests for the multi-subscriber event bus."""

import pytest

from repro.obs.bus import TOPICS, EventBus
from repro.sim.packet import Packet
from repro.sim.queue import DropTailQueue
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe


def test_unknown_topic_rejected():
    bus = EventBus()
    with pytest.raises(ValueError):
        bus.subscribe("nope", lambda now: None)
    with pytest.raises(ValueError):
        bus.publish("nope", 0.0)


def test_publish_reaches_subscribers_in_order():
    bus = EventBus()
    seen = []
    bus.subscribe("fault", lambda now, desc: seen.append(("a", now, desc)))
    bus.subscribe("fault", lambda now, desc: seen.append(("b", now, desc)))
    bus.publish("fault", 1.5, "link down")
    assert seen == [("a", 1.5, "link down"), ("b", 1.5, "link down")]


def test_bind_sender_fans_out_cwnd_events(sim):
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=20)
    bus = EventBus()
    bus.bind_sender(sender)
    all_events, mine, others = [], [], []
    bus.subscribe("cwnd", lambda now, fid, kind, cwnd: all_events.append(kind))
    bus.subscribe("cwnd", lambda now, fid, kind, cwnd: mine.append(kind), flow=0)
    bus.subscribe("cwnd", lambda now, fid, kind, cwnd: others.append(kind), flow=9)
    sender.start()
    sim.run(until=5.0)
    assert sender.completed
    assert all_events == mine  # wildcard and per-flow see the same stream
    assert "ack" in all_events
    assert others == []  # per-flow filtering really filters


def test_bind_sender_projects_loss_and_rto_topics(sim):
    # Drop one early packet so fast recovery produces a loss_event.
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=60, drop_indices=(10,))
    bus = EventBus()
    bus.bind_sender(sender)
    kinds, losses = [], []
    bus.subscribe("cwnd", lambda now, fid, kind, cwnd: kinds.append(kind))
    bus.subscribe("loss", lambda now, fid, cwnd: losses.append((fid, cwnd)))
    sender.start()
    sim.run(until=10.0)
    assert kinds.count("loss_event") == len(losses)
    assert len(losses) >= 1
    assert all(fid == 0 for fid, _ in losses)


def test_second_bind_raises(sim):
    # One forwarder slot per component: a second bind (same or another
    # bus) must fail loudly instead of silently replacing the first.
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=20)
    bus = EventBus()
    bus.bind_sender(sender)
    with pytest.raises(RuntimeError):
        bus.bind_sender(sender)
    with pytest.raises(RuntimeError):
        EventBus().bind_sender(sender)
    queue = DropTailQueue(3000)
    bus.bind_queue(queue)
    with pytest.raises(RuntimeError):
        EventBus().bind_queue(queue)


def test_late_subscription_still_delivers(sim):
    # Subscribing after bind_sender() must work: forwarders capture the
    # subscriber lists by identity, not by snapshot, and always receive
    # every event kind (per-ACK included), so nothing needs upgrading.
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=500)
    bus = EventBus()
    bus.bind_sender(sender)
    seen = []
    sender.start()
    sim.run(until=0.03)
    assert not sender.completed
    bus.subscribe("cwnd", lambda now, fid, kind, cwnd: seen.append(kind))
    sim.run(until=5.0)
    assert sender.completed
    assert seen  # events after the late subscription were delivered
    assert "ack" in seen


def test_bind_queue_forwards_enqueue_and_drop():
    queue = DropTailQueue(3000)
    bus = EventBus()
    bus.bind_queue(queue)
    enqueued, dropped = [], []
    bus.subscribe("enqueue", lambda now, pkt: enqueued.append(pkt.seq))
    bus.subscribe("drop", lambda now, pkt: dropped.append(pkt.seq))
    for seq in range(4):
        queue.offer(0.5, Packet(flow_id=0, seq=seq, size=1000))
    assert enqueued == [0, 1, 2]
    assert dropped == [3]


def test_all_topics_are_subscribable():
    bus = EventBus()
    seen = []
    for topic in TOPICS:
        bus.subscribe(topic, lambda now, *payload, topic=topic: seen.append(topic))
        bus.publish(topic, 0.0)
    assert seen == list(TOPICS)
