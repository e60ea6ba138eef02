"""Unit tests for the rate-limited Link."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.queue import DropTailQueue
from tests.packets import make_packet


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def send(self, packet):
        self.received.append((self.sim.now, packet))


def test_link_serialisation_delay():
    # 1500 bytes at 1.2 Mbps -> 10 ms per packet.
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, delay=0.0, routes=[sink.send])
    link.send(make_packet(0, 0, size=1500))
    sim.run()
    assert sink.received[0][0] == pytest.approx(0.010)


def test_link_back_to_back_packets_serialise():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, delay=0.0, routes=[sink.send])
    for seq in range(3):
        link.send(make_packet(0, seq, size=1500))
    sim.run()
    times = [t for t, _ in sink.received]
    assert times == pytest.approx([0.010, 0.020, 0.030])


def test_link_adds_propagation_delay():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, delay=0.1, routes=[sink.send])
    link.send(make_packet(0, 0, size=1500))
    sim.run()
    assert sink.received[0][0] == pytest.approx(0.110)


def test_link_pipelines_propagation():
    # Propagation overlaps with the next packet's serialisation.
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, delay=0.5, routes=[sink.send])
    for seq in range(2):
        link.send(make_packet(0, seq, size=1500))
    sim.run()
    times = [t for t, _ in sink.received]
    assert times == pytest.approx([0.510, 0.520])


def test_link_preserves_order():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=10_000_000, delay=0.01, routes=[sink.send])
    for seq in range(20):
        link.send(make_packet(0, seq))
    sim.run()
    assert [p.seq for _, p in sink.received] == list(range(20))


def test_link_drops_on_full_queue():
    sim = Simulator()
    sink = Collector(sim)
    queue = DropTailQueue(3000)  # two packets
    link = Link(sim, rate_bps=1_200_000, routes=[sink.send], queue=queue)
    for seq in range(5):
        link.send(make_packet(0, seq))
    sim.run()
    # First packet starts transmitting immediately (leaves the queue),
    # so 1 in service + 2 queued = 3 delivered, 2 dropped.
    assert len(sink.received) == 3
    assert queue.dropped_packets == 2


def test_link_counts_transmissions():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_000_000, routes=[sink.send])
    for seq in range(4):
        link.send(make_packet(0, seq, size=1000))
    sim.run()
    assert link.transmitted_packets == 4
    assert link.transmitted_bytes == 4000


def test_link_resumes_after_idle():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, routes=[sink.send])
    link.send(make_packet(0, 0))
    sim.run()
    assert sim.now == pytest.approx(0.010)
    # Link went idle; a later arrival must restart the transmitter.
    sim.schedule(1.0, link.send, make_packet(0, 1))
    sim.run()
    assert len(sink.received) == 2
    # Arrival at 1.01 + 10 ms serialisation.
    assert sink.received[1][0] == pytest.approx(1.020)


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, rate_bps=0)
    with pytest.raises(ValueError):
        Link(sim, rate_bps=1e6, delay=-0.1)


class EveryOtherLoss:
    """Deterministic LossModel: drops every second packet."""

    def __init__(self):
        self.calls = 0

    def should_drop(self, packet):
        self.calls += 1
        return self.calls % 2 == 0


def test_link_down_pauses_transmitter_and_up_resumes():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=12_000, routes=[sink.send])  # 1 s per 1500 B packet
    link.set_down()
    for seq in range(3):
        link.send(make_packet(0, seq))
    sim.run(until=1.0)
    assert sink.received == []  # nothing serialises while down
    assert len(link.queue) == 3  # ...but the queue kept accepting
    link.set_up()
    sim.run()
    assert [p.seq for _, p in sink.received] == [0, 1, 2]


def test_link_down_lets_inflight_packet_complete():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=12_000, routes=[sink.send])
    link.send(make_packet(0, 0))  # starts serialising immediately
    link.send(make_packet(0, 1))
    sim.schedule(0.5, link.set_down)  # mid-serialisation of seq 0
    sim.run()
    assert [p.seq for _, p in sink.received] == [0]  # in-flight completes
    assert len(link.queue) == 1  # seq 1 stranded behind the blackout


def test_link_down_overflows_queue_naturally():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=12_000, routes=[sink.send], queue=DropTailQueue(3000))
    link.set_down()
    for seq in range(5):
        link.send(make_packet(0, seq))
    assert len(link.queue) == 2
    assert link.queue.dropped_packets == 3


def test_set_down_and_up_are_idempotent():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=12_000, routes=[sink.send])
    link.set_up()  # already up: no-op
    link.set_down()
    link.set_down()
    link.set_up()
    link.send(make_packet(0, 0))
    sim.run()
    assert len(sink.received) == 1


def test_set_rate_applies_from_next_serialisation():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=12_000, routes=[sink.send])
    link.send(make_packet(0, 0))
    link.send(make_packet(0, 1))
    link.set_rate(6_000)  # halve the rate; seq 0 already serialising at full
    sim.run()
    times = [t for t, _ in sink.received]
    assert times[0] == pytest.approx(1.0)  # old rate
    assert times[1] == pytest.approx(3.0)  # 1.0 + 2 s at the halved rate
    with pytest.raises(ValueError):
        link.set_rate(0)


def test_loss_model_drops_before_queue():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=12_000, routes=[sink.send])
    link.loss_model = EveryOtherLoss()
    for seq in range(6):
        link.send(make_packet(0, seq))
    sim.run()
    assert link.impaired_drops == 3
    assert link.queue.dropped_packets == 0  # channel loss, not congestion
    assert [p.seq for _, p in sink.received] == [0, 2, 4]
