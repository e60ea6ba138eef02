"""Tests for the NewReno CCA (direct unit tests plus pipe integration)."""

import pytest

from repro.tcp.cca.newreno import NewReno
from repro.tcp.rate_sample import RateSample
from tests.conftest import make_pipe


class FakeConn:
    def __init__(self, in_recovery=False, in_flight=10):
        self.in_recovery = in_recovery
        self.in_flight = in_flight


def ack(n=1):
    rs = RateSample()
    rs.newly_acked = n
    return rs


class TestUnit:
    def test_initial_window(self):
        cca = NewReno()
        assert cca.cwnd == 10.0
        assert cca.cwnd < cca.ssthresh  # slow start

    def test_slow_start_grows_per_acked_packet(self):
        cca = NewReno()
        cca.on_ack(ack(4), FakeConn())
        assert cca.cwnd == 14.0

    def test_congestion_avoidance_linear(self):
        cca = NewReno()
        cca.ssthresh = 10.0
        cca.cwnd = 10.0
        cca.on_ack(ack(1), FakeConn())
        assert cca.cwnd == pytest.approx(10.1)
        # One full window of ACKs ~ +1 MSS per RTT.
        for _ in range(9):
            cca.on_ack(ack(1), FakeConn())
        assert cca.cwnd == pytest.approx(11.0, rel=0.01)

    def test_slow_start_capped_at_ssthresh(self):
        cca = NewReno()
        cca.ssthresh = 12.0
        cca.on_ack(ack(8), FakeConn())
        assert cca.cwnd == 12.0

    def test_loss_event_halves(self):
        cca = NewReno()
        cca.cwnd = 40.0
        cca.on_loss_event(FakeConn())
        assert cca.cwnd == 20.0
        assert cca.ssthresh == 20.0
        assert cca.cwnd >= cca.ssthresh  # congestion avoidance

    def test_halving_floor(self):
        cca = NewReno()
        cca.cwnd = 2.0
        cca.on_loss_event(FakeConn())
        assert cca.cwnd == 2.0  # MIN_CWND floor

    def test_rto_collapses_to_one(self):
        cca = NewReno()
        cca.cwnd = 40.0
        cca.on_rto(FakeConn(in_flight=30))
        assert cca.cwnd == 1.0
        assert cca.ssthresh == 15.0

    def test_no_growth_during_recovery(self):
        cca = NewReno()
        before = cca.cwnd
        cca.on_ack(ack(5), FakeConn(in_recovery=True))
        assert cca.cwnd == before

    def test_no_pacing(self):
        assert NewReno().pacing_rate is None


class TestIntegration:
    def test_sawtooth_emerges_under_periodic_loss(self, sim):
        drops = set(range(100, 4000, 700))
        sender, _, _ = make_pipe(sim, NewReno(), total_packets=4000, drop_indices=drops)
        sender.start()
        sim.run(until=60.0)
        assert sender.completed
        assert sender.stats.loss_recovery_events >= 3
        # AIMD kept running: every loss event halved then regrew.
        assert sender.cca.cwnd > 2
