"""Tests for the TCP receiver: reassembly, SACK generation, delayed ACKs."""

import pytest

from repro.sim.engine import Simulator
from repro.tcp.connection import TcpReceiver
from tests.packets import make_packet


class AckCollector:
    def __init__(self):
        self.acks = []

    def send(self, packet, at):
        self.acks.append(packet)


def make_receiver(sim, delayed_ack=False, **kwargs):
    collector = AckCollector()
    receiver = TcpReceiver(sim, 0, reverse_path=collector, delayed_ack=delayed_ack, **kwargs)
    return receiver, collector


def data(seq):
    return make_packet(0, seq)


def test_in_order_data_advances_rcv_nxt(sim):
    receiver, collector = make_receiver(sim)
    for seq in range(5):
        receiver.send(data(seq), sim.now)
    assert receiver.rcv_nxt == 5
    assert collector.acks[-1].ack_seq == 5


def test_out_of_order_generates_dup_ack_with_sack(sim):
    receiver, collector = make_receiver(sim)
    receiver.send(data(0), sim.now)
    receiver.send(data(2), sim.now)  # hole at 1
    ack = collector.acks[-1]
    assert ack.ack_seq == 1
    assert (2, 3) in ack.sack_blocks


def test_hole_fill_advances_across_buffered_data(sim):
    receiver, collector = make_receiver(sim)
    receiver.send(data(0), sim.now)
    receiver.send(data(2), sim.now)
    receiver.send(data(3), sim.now)
    receiver.send(data(1), sim.now)  # fills the hole
    assert receiver.rcv_nxt == 4
    assert collector.acks[-1].ack_seq == 4
    assert collector.acks[-1].sack_blocks == ()


def test_duplicate_data_counted_and_acked(sim):
    receiver, collector = make_receiver(sim)
    receiver.send(data(0), sim.now)
    receiver.send(data(0), sim.now)
    assert receiver.duplicate_packets == 1
    assert collector.acks[-1].ack_seq == 1


def test_duplicate_ooo_data_counted(sim):
    receiver, _ = make_receiver(sim)
    receiver.send(data(5), sim.now)
    receiver.send(data(5), sim.now)
    assert receiver.duplicate_packets == 1


def test_sack_blocks_capped(sim):
    receiver, collector = make_receiver(sim)
    # Create four separate holes: 1,3,5,7 received; 0,2,4,6 missing.
    for seq in (1, 3, 5, 7):
        receiver.send(data(seq), sim.now)
    ack = collector.acks[-1]
    assert len(ack.sack_blocks) == TcpReceiver.MAX_SACK_BLOCKS == 3
    # Triggering range first, then the lowest others ascending.
    assert ack.sack_blocks == ((7, 8), (1, 2), (3, 4))


def test_sack_block_for_triggering_segment_first(sim):
    receiver, collector = make_receiver(sim)
    receiver.send(data(5), sim.now)
    receiver.send(data(9), sim.now)
    ack = collector.acks[-1]
    assert ack.sack_blocks[0] == (9, 10)


def test_receiver_rejects_ack_packet(sim):
    receiver, _ = make_receiver(sim)
    with pytest.raises(ValueError):
        receiver.send(make_packet(0, is_ack=True, ack_seq=1), sim.now)


class TestDelayedAck:
    def test_every_second_segment_acked(self, sim):
        receiver, collector = make_receiver(sim, delayed_ack=True)
        receiver.send(data(0), sim.now)
        assert len(collector.acks) == 0  # first segment held
        receiver.send(data(1), sim.now)
        assert len(collector.acks) == 1
        assert collector.acks[0].ack_seq == 2

    def test_arrival_past_the_deadline_sends_the_held_ack_first(self, sim):
        # Arrivals may come ahead of the clock: one after the held
        # segment's deadline first sends that ACK, at the deadline.
        receiver, collector = make_receiver(sim, delayed_ack=True)
        times = []
        original = collector.send
        collector.send = lambda p, at: (times.append((at, p.ack_seq)), original(p, at))
        late = 0.5 + TcpReceiver.DELACK_TIMEOUT + 1e-9
        receiver.send(data(0), 0.5)
        receiver.send(data(1), late)
        assert times == [(0.5 + TcpReceiver.DELACK_TIMEOUT, 1)]
        receiver.send(data(2), 0.6)  # data(1) was held in turn
        assert times[1:] == [(late + TcpReceiver.DELACK_TIMEOUT, 2)]
        assert sim.now == 0.0  # nothing ran on the clock

    def test_delack_timer_flushes_lone_segment(self, sim):
        receiver, collector = make_receiver(sim, delayed_ack=True)
        receiver.send(data(0), sim.now)
        sim.run(until=0.1)
        assert len(collector.acks) == 1
        assert collector.acks[0].ack_seq == 1

    def test_delack_timeout_value(self, sim):
        receiver, collector = make_receiver(sim, delayed_ack=True)
        ack_times = []
        original = collector.send
        collector.send = lambda p, at: (ack_times.append(at), original(p, at))
        sim.schedule(0.0, receiver.send, data(0), 0.0)
        sim.run(until=1.0)
        assert ack_times[0] == pytest.approx(0.040, abs=1e-6)

    def test_ooo_data_acked_immediately(self, sim):
        receiver, collector = make_receiver(sim, delayed_ack=True)
        receiver.send(data(3), sim.now)
        assert len(collector.acks) == 1  # no delay for out-of-order

    def test_in_order_behind_hole_acked_immediately(self, sim):
        receiver, collector = make_receiver(sim, delayed_ack=True)
        receiver.send(data(2), sim.now)          # hole at 0,1
        n = len(collector.acks)
        receiver.send(data(0), sim.now)          # in-order but holes remain above
        assert len(collector.acks) == n + 1
