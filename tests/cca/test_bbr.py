"""Tests for the BBRv1 state machine, plus pipe/dumbbell integration."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.queue import DropTailQueue
from repro.sim.topology import FlowSpec, build_dumbbell
from repro.tcp.cca.bbr import DRAIN, PROBE_BW, PROBE_RTT, STARTUP, Bbr
from repro.tcp.rate_sample import RateSample
from repro.units import mbps
from tests.conftest import make_pipe


def make_bbr():
    return Bbr(rng=random.Random(1))


class TestDefaults:
    def test_initial_state(self):
        cca = make_bbr()
        assert cca.state == STARTUP
        assert cca.pacing_gain == pytest.approx(2.885)
        assert cca.cwnd_gain == pytest.approx(2.885)
        assert cca.btlbw is None
        assert cca.rtprop is None

    def test_bootstrap_pacing_rate_positive(self):
        assert make_bbr().pacing_rate > 0

    def test_gain_cycle_shape(self):
        assert Bbr.GAIN_CYCLE[0] == 1.25
        assert Bbr.GAIN_CYCLE[1] == 0.75
        assert len(Bbr.GAIN_CYCLE) == 8
        assert all(g == 1.0 for g in Bbr.GAIN_CYCLE[2:])

    def test_inflight_target_before_estimates(self):
        assert make_bbr().inflight_target(2.0) == Bbr.INITIAL_CWND


class TestSoloBehaviour:
    """A single BBR flow on a clean 20 Mbps bottleneck."""

    @pytest.fixture()
    def run(self):
        sim = Simulator()
        d = build_dumbbell(
            sim,
            [FlowSpec(make_bbr(), rtt=0.02)],
            bottleneck_bw_bps=mbps(20),
            queue=DropTailQueue(100_000),
        )
        d.start_all()
        return sim, d.flows[0].sender

    def test_estimates_converge_to_truth(self, run):
        sim, sender = run
        sim.run(until=3.0)
        cca = sender.cca
        # 20 Mbps / 1500 B = ~1667 packets/s.
        assert cca.btlbw == pytest.approx(1667, rel=0.05)
        assert cca.rtprop == pytest.approx(0.02, rel=0.15)

    def test_reaches_probe_bw_quickly(self, run):
        sim, sender = run
        sim.run(until=1.0)
        assert sender.cca.state == PROBE_BW
        assert sender.cca.filled_pipe

    def test_high_utilization(self, run):
        sim, sender = run
        sim.run(until=6.0)
        goodput = sender.snd_una * 1448 * 8 / 6.0
        assert goodput > mbps(17)

    def test_probe_rtt_entered_after_10s(self, run):
        sim, sender = run
        states = set()

        def watch():
            states.add(sender.cca.state)
            sim.schedule(0.01, watch)

        sim.schedule(0.01, watch)
        sim.run(until=12.0)
        assert PROBE_RTT in states

    def test_queue_kept_short(self, run):
        """BBR's raison d'etre: near-capacity throughput without filling
        the buffer the way loss-based CCAs do."""
        sim, sender = run
        sim.run(until=5.0)
        assert sender.stats.rto_events == 0
        # Post-startup inflight ~= 2x BDP (+quantization), far below the
        # 66-packet buffer plus BDP.
        assert sender.in_flight < 45


class TestStateMachine:
    def test_full_pipe_detection_requires_plateau(self):
        cca = make_bbr()
        cca.btlbw = 100.0
        cca.full_bw = 100.0
        cca.round_start = True

        class RS:
            is_app_limited = False
            delivery_rate = None
            delivered = 1
            prior_delivered = 0

        # Three non-growing rounds flip filled_pipe.
        for _ in range(3):
            cca._check_full_pipe(RS())
        assert cca.filled_pipe

    def test_growth_resets_plateau_counter(self):
        cca = make_bbr()
        cca.btlbw = 100.0
        cca.full_bw = 50.0

        class RS:
            is_app_limited = False

        cca.round_start = True
        cca._check_full_pipe(RS())
        assert cca.full_bw == 100.0
        assert cca.full_bw_count == 0
        assert not cca.filled_pipe

    def test_drain_entered_after_full_pipe(self):
        cca = make_bbr()
        cca.filled_pipe = True

        class Conn:
            in_flight = 1000

        cca._check_drain(Conn(), now=1.0)
        assert cca.state == DRAIN
        assert cca.pacing_gain == pytest.approx(1 / 2.885)

    def test_drain_exits_to_probe_bw_when_inflight_low(self):
        cca = make_bbr()
        cca.filled_pipe = True
        cca.state = DRAIN
        cca.btlbw = 100.0
        cca.rtprop = 0.1

        class Conn:
            in_flight = 1  # below BDP

        cca._check_drain(Conn(), now=1.0)
        assert cca.state == PROBE_BW
        assert cca.cwnd_gain == 2.0
        assert cca.cycle_index != 0  # never starts at the 1.25 phase

    def test_probe_bw_cycle_advances(self):
        cca = make_bbr()
        cca.state = PROBE_BW
        cca.btlbw = 100.0
        cca.rtprop = 0.05
        cca.cycle_index = 2
        cca.pacing_gain = 1.0
        cca.cycle_stamp = 0.0

        class Conn:
            in_flight = 10

            class sim:
                now = 0.06  # > rtprop elapsed

            class rate_estimator:
                delivered = 100

        rs = RateSample()
        rs.prior_in_flight = 10
        cca.on_ack(rs, Conn())
        assert cca.cycle_index == 3
        assert cca.cycle_stamp == 0.06  # repro-lint: disable=RPR003 -- copied

    def test_loss_modulation_subtracts_losses(self):
        cca = make_bbr()
        cca.state = PROBE_BW
        cca.cwnd = 50.0
        cca.filled_pipe = True
        cca.btlbw = 10_000.0
        cca.rtprop = 0.02

        class Conn:
            in_flight = 40

            class sim:
                now = 0.001

            class rate_estimator:
                delivered = 100

        rs = RateSample()
        rs.newly_lost = 10
        rs.newly_acked = 0
        cca.on_ack(rs, Conn())
        assert cca.cwnd == pytest.approx(40.0)

    def test_rto_sets_cwnd_to_one_then_floor(self):
        cca = make_bbr()

        class Conn:
            in_flight = 10

        cca.on_rto(Conn())
        assert cca.cwnd == 1.0

    def test_recovery_restores_prior_cwnd(self):
        cca = make_bbr()
        cca.cwnd = 80.0

        class Conn:
            in_flight = 70

            class rate_estimator:
                delivered = 1000

        cca.on_loss_event(Conn())
        assert cca.prior_cwnd == 80.0
        cca.cwnd = 30.0
        cca.on_recovery_exit(Conn())
        assert cca.cwnd == 80.0


class TestWithLoss:
    def test_transfer_completes_despite_loss(self, sim):
        sender, receiver, _ = make_pipe(
            sim, make_bbr(), total_packets=500, drop_indices={50, 51, 200}
        )
        sender.start()
        sim.run(until=30.0)
        assert sender.completed
        assert receiver.rcv_nxt == 500
