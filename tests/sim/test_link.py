"""Unit tests for the rate-limited Link."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.link import Link
from repro.sim.netem import NetemDelay
from repro.sim.queue import DropTailQueue
from tests.packets import make_packet


class Collector:
    """Records each packet with its arrival time: the time it is given
    as a timed sink (behind a link), or the clock (behind netem)."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def send(self, packet, at=None):
        self.received.append((self.sim.now if at is None else at, packet))


def test_link_serialisation_delay():
    # 1500 bytes at 1.2 Mbps -> 10 ms per packet.
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, routes=[sink.send])
    link.send(make_packet(0, 0, size=1500))
    sim.run()
    assert sink.received[0][0] == pytest.approx(0.010)


def test_link_back_to_back_packets_serialise():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, routes=[sink.send])
    for seq in range(3):
        link.send(make_packet(0, seq, size=1500))
    sim.run()
    times = [t for t, _ in sink.received]
    assert times == pytest.approx([0.010, 0.020, 0.030])


def test_link_adds_propagation_delay():
    # The link hands the packet on as serialisation completes; a netem
    # element behind it adds the propagation.
    sim = Simulator()
    sink = Collector(sim)
    wire = NetemDelay(sim, 0.1, sink)
    link = Link(sim, rate_bps=1_200_000, routes=[wire.send])
    link.send(make_packet(0, 0, size=1500))
    sim.run()
    assert sink.received[0][0] == pytest.approx(0.110)


def test_link_pipelines_propagation():
    # Propagation overlaps with the next packet's serialisation.
    sim = Simulator()
    sink = Collector(sim)
    wire = NetemDelay(sim, 0.5, sink)
    link = Link(sim, rate_bps=1_200_000, routes=[wire.send])
    for seq in range(2):
        link.send(make_packet(0, seq, size=1500))
    sim.run()
    times = [t for t, _ in sink.received]
    assert times == pytest.approx([0.510, 0.520])


def test_link_preserves_order():
    sim = Simulator()
    sink = Collector(sim)
    wire = NetemDelay(sim, 0.01, sink)
    link = Link(sim, rate_bps=10_000_000, routes=[wire.send])
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
    # Link went idle at 0.01; a later arrival must restart the transmitter.
    sim.schedule_at(1.0, link.send, make_packet(0, 1))
    sim.run()
    assert len(sink.received) == 2
    # Arrival at 1.0 + 10 ms serialisation.
    assert sink.received[1][0] == pytest.approx(1.010)


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, rate_bps=0)


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
    link.set_horizon(0.5)  # as the fault injector does before a change
    link.send(make_packet(0, 0))  # starts serialising immediately
    link.send(make_packet(0, 1))
    sim.schedule(0.5, link.set_down)  # mid-serialisation of seq 0
    sim.schedule(0.5, link.set_horizon, math.inf)
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
    link.set_horizon(0.0)
    link.send(make_packet(0, 0))
    link.send(make_packet(0, 1))
    link.set_rate(6_000)  # halve the rate; seq 0 already serialising at full
    link.set_horizon(math.inf)
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


def test_departures_are_computed_at_admission():
    # The link hands each packet on as it admits it, with its departure
    # time: no event runs, and the clock has not moved.
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, routes=[sink.send])
    for seq in range(3):
        link.send(make_packet(0, seq, size=1500))
    assert [t for t, _ in sink.received] == [0.01, 0.01 + 0.01, 0.01 + 0.01 + 0.01]
    assert sim.events_processed == 0 and sim.now == 0.0
    # The first packet is in service; the other two wait until they start.
    assert len(link.queue) == 2


def test_queue_settles_at_the_next_admission():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, routes=[sink.send])
    for seq in range(3):
        link.send(make_packet(0, seq, size=1500))  # starts 0, 0.01, 0.02
    # A start at the arrival's own instant still waits in the queue.
    sim.schedule_at(0.01, link.send, make_packet(0, 3, size=1500))
    sim.run()
    assert len(link.queue) == 3
    sim.schedule_at(0.025, link.send, make_packet(0, 4, size=1500))
    sim.run()
    assert len(link.queue) == 2  # seqs 3 and 4; 1 and 2 have started


def test_packets_at_or_past_the_horizon_wait_for_it():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=1_200_000, routes=[sink.send])
    link.set_horizon(0.02)
    for seq in range(3):
        link.send(make_packet(0, seq, size=1500))  # departs 0.01, 0.02, 0.03
    assert [p.seq for _, p in sink.received] == [0]
    link.set_horizon(0.03)
    assert [p.seq for _, p in sink.received] == [0, 1]
    link.set_horizon(math.inf)
    assert [p.seq for _, p in sink.received] == [0, 1, 2]
    assert link.transmitted_packets == 3


def test_change_after_an_early_delivery_raises():
    # A change at t=0.5 would move a departure already handed on.
    sim = Simulator()
    link = Link(sim, rate_bps=12_000, routes=[Collector(sim).send])
    link.send(make_packet(0, 0))
    link.send(make_packet(0, 1))
    sim.schedule(0.5, link.set_rate, 6_000)
    with pytest.raises(SimulationError, match="horizon"):
        sim.run()


def test_set_capacity_evicts_waiting_packets_and_keeps_the_rest():
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, rate_bps=12_000, routes=[sink.send])
    link.set_horizon(0.5)
    for seq in range(4):
        link.send(make_packet(0, seq))  # departs 1, 2, 3, 4 s
    sim.schedule(0.5, link.set_capacity, 3000)  # room for two waiting
    sim.schedule(0.5, link.set_horizon, math.inf)
    sim.run()
    assert [(t, p.seq) for t, p in sink.received] == [(1.0, 0), (2.0, 1), (3.0, 2)]
    assert link.queue.dropped_packets == 1
