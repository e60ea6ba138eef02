"""Tests for the simplified BBRv2 implementation."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.queue import DropTailQueue
from repro.sim.topology import FlowSpec, build_dumbbell
from repro.tcp.cca.bbr2 import (
    PROBE_CRUISE,
    PROBE_DOWN,
    PROBE_REFILL,
    PROBE_UP,
    Bbr2,
)
from repro.tcp.rate_sample import RateSample
from repro.units import mbps
from tests.conftest import make_pipe


def make_bbr2():
    return Bbr2(rng=random.Random(3))


class FakeEstimator:
    delivered = 100


class FakeConn:
    in_flight = 20
    rate_estimator = FakeEstimator()

    class sim:
        now = 1.0


def test_initially_unbounded_inflight():
    assert make_bbr2().inflight_hi == float("inf")


def test_loss_event_learns_inflight_bound_and_cuts_cwnd():
    cca = make_bbr2()
    cca.cwnd = 40.0
    cca.on_loss_event(FakeConn())
    assert cca.inflight_hi == pytest.approx(20 * 0.7)
    assert cca.cwnd == pytest.approx(40 * 0.7)


def test_second_loss_tightens_bound():
    cca = make_bbr2()
    cca.on_loss_event(FakeConn())
    first = cca.inflight_hi
    cca.on_loss_event(FakeConn())
    assert cca.inflight_hi <= first


def test_cwnd_capped_by_inflight_hi():
    cca = make_bbr2()
    cca.filled_pipe = True
    cca.btlbw = 10_000.0
    cca.rtprop = 0.02
    cca.inflight_hi = 15.0
    rs = RateSample()
    rs.newly_acked = 5
    cca.cwnd = 14.0
    cca.on_ack(rs, FakeConn())
    assert cca.cwnd == pytest.approx(15.0)  # 14 + 5 acked, capped


def test_probe_bw_cycle_sequence():
    cca = make_bbr2()
    cca.btlbw = 1000.0
    cca.rtprop = 0.02
    cca._enter_probe_bw(now=0.0)
    assert cca.state == PROBE_DOWN
    rs = RateSample()
    rs.prior_in_flight = 0  # fully drained
    rs.newly_lost = 0
    cca._check_cycle_phase(rs, now=0.05)
    assert cca.state == PROBE_CRUISE
    cca._check_cycle_phase(rs, now=0.05 + cca._probe_wait + 0.01)
    assert cca.state == PROBE_REFILL
    now = 0.05 + cca._probe_wait + 0.01
    cca._check_cycle_phase(rs, now=now + 0.03)
    assert cca.state == PROBE_UP
    assert cca.pacing_gain == 1.25
    # A loss while probing up sends it back down.
    rs.newly_lost = 2
    cca._check_cycle_phase(rs, now=now + 0.1)
    assert cca.state == PROBE_DOWN


def test_probe_up_raises_ceiling_without_loss_boundedly():
    cca = make_bbr2()
    cca.btlbw = 1000.0
    cca.rtprop = 0.02
    cca.state = PROBE_UP
    cca.pacing_gain = 1.25
    cca.inflight_hi = 10.0
    cca._phase_stamp = 0.0
    rs = RateSample()
    rs.newly_lost = 0
    rs.prior_in_flight = 5
    for i in range(100):
        cca._check_cycle_phase(rs, now=0.05 * (i + 1))
    assert cca.inflight_hi <= cca.inflight_target(4.0) + 1e-9
    assert cca.inflight_hi > 10.0


def test_probe_rtt_holds_half_bdp_not_four():
    cca = make_bbr2()
    cca.btlbw = 2000.0
    cca.rtprop = 0.05  # BDP = 100 packets
    assert cca._probe_rtt_cwnd() == pytest.approx(50.0)


def test_solo_flow_utilises_link():
    sim = Simulator()
    d = build_dumbbell(
        sim,
        [FlowSpec(make_bbr2(), rtt=0.02)],
        bottleneck_bw_bps=mbps(20),
        queue=DropTailQueue(100_000),
    )
    d.start_all()
    sim.run(until=8.0)
    sender = d.flows[0].sender
    goodput = sender.snd_una * 1448 * 8 / 8.0
    assert goodput > mbps(16)
    assert sender.cca.btlbw == pytest.approx(1667, rel=0.1)


def test_bbr2_less_aggressive_than_bbr1_under_loss(sim):
    """v2 backs off on loss where v1 ploughs on: after the same drop
    pattern, v2's cwnd is bounded by its learned inflight_hi."""
    drops = set(range(40, 400, 60))
    s2, _, _ = make_pipe(sim, make_bbr2(), total_packets=800, drop_indices=drops)
    s2.start()
    sim.run(until=40.0)
    assert s2.completed
    assert s2.cca.inflight_hi < float("inf")


def test_registry_name():
    assert make_bbr2().name == "bbr2"
