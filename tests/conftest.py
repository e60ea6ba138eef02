"""Shared fixtures and helpers for the test suite.

Tests run against deliberately tiny networks (a few Mbps, seconds of
simulated time) so the whole suite stays fast while still exercising the
real packet-level machinery end to end.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.netem import NetemDelay
from repro.tcp.connection import TcpReceiver, TcpSender


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


class LossyWire:
    """A delay element that deterministically drops listed sequence numbers.

    Only data packets are candidates; the Nth *transmission attempt* of
    the flow is dropped if its index is in ``drop_indices`` (so
    retransmissions can be dropped too, deterministically).
    """

    def __init__(self, sim, delay, sink=None, drop_indices=()):
        self.sim = sim
        self.delay = delay
        self.sink = sink
        self.drop_indices = set(drop_indices)
        self.seen = 0
        self.dropped = []

    def send(self, packet):
        index = self.seen
        self.seen += 1
        if index in self.drop_indices:
            self.dropped.append(packet.seq)
            return
        # The receiver is a timed sink: it takes the arrival time.
        at = self.sim.now + self.delay
        if self.delay == 0:
            self.sink.send(packet, at)
        else:
            self.sim.schedule(self.delay, self.sink.send, packet, at)


def make_pipe(
    sim: Simulator,
    cca,
    one_way_delay: float = 0.01,
    total_packets=None,
    drop_indices=(),
    delayed_ack: bool = True,
):
    """Wire a sender/receiver pair over a perfect (or lossy) pipe.

    No bandwidth limit: purely delay-based, which makes timing assertions
    exact. Returns (sender, receiver, wire).
    """
    # Each element is built after the one it hands packets to; the wire,
    # which closes the loop, gets its sink last.
    wire = LossyWire(sim, one_way_delay, drop_indices=drop_indices)
    sender = TcpSender(sim, 0, cca, wire, total_packets=total_packets)
    reverse = NetemDelay(sim, one_way_delay, sender)
    receiver = TcpReceiver(sim, 0, reverse, delayed_ack=delayed_ack)
    wire.sink = receiver
    return sender, receiver, wire
