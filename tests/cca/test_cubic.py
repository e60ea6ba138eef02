"""Tests for the CUBIC CCA."""

import pytest

from repro.tcp.cca.cubic import Cubic
from repro.tcp.rate_sample import RateSample
from repro.tcp.rtt import RttEstimator


class FakeSim:
    def __init__(self):
        self.now = 0.0


class FakeConn:
    def __init__(self, rtt=0.05):
        self.sim = FakeSim()
        self.in_recovery = False
        self.in_flight = 10
        self.rtt = RttEstimator()
        self.rtt.on_measurement(rtt)


def ack(n=1):
    rs = RateSample()
    rs.newly_acked = n
    return rs


def test_constants_match_rfc8312():
    assert Cubic.C == 0.4
    assert Cubic.BETA == 0.7


def test_slow_start_initially():
    cca = Cubic()
    conn = FakeConn()
    cca.on_ack(ack(3), conn)
    assert cca.cwnd == 13.0


def test_loss_event_beta_decrease():
    cca = Cubic()
    conn = FakeConn()
    cca.cwnd = 100.0
    cca.ssthresh = 50.0
    cca.on_loss_event(conn)
    assert cca.cwnd == pytest.approx(70.0)
    assert cca.w_max == pytest.approx(100.0)


def test_fast_convergence_lowers_wmax():
    cca = Cubic()
    conn = FakeConn()
    cca.cwnd = 100.0
    cca.ssthresh = 50.0
    cca.on_loss_event(conn)          # w_max = 100, cwnd = 70
    cca.cwnd = 80.0                  # lost again before reaching w_max
    cca.on_loss_event(conn)
    assert cca.w_max == pytest.approx(80.0 * (2 - 0.7) / 2)


def test_k_computed_on_epoch_start():
    cca = Cubic()
    conn = FakeConn()
    cca.ssthresh = 30.0
    cca.cwnd = 35.0
    cca.w_max = 100.0
    cca.on_ack(ack(1), conn)
    # K = cbrt((w_max - cwnd)/C) = cbrt(65/0.4)
    assert cca.k == pytest.approx((65.0 / 0.4) ** (1 / 3), rel=1e-6)


def test_concave_growth_toward_wmax():
    cca = Cubic()
    conn = FakeConn(rtt=0.05)
    cca.ssthresh = 50.0
    cca.cwnd = 50.0
    cca.w_max = 100.0
    start = cca.cwnd
    for step in range(200):
        conn.sim.now = 0.05 * step
        cca.on_ack(ack(int(cca.cwnd)), conn)
    # After many RTTs the window should have grown well toward/past w_max.
    assert cca.cwnd > start + 20


def test_window_growth_is_rtt_insensitive_in_cubic_region():
    """CUBIC's real-time growth: two flows with 4x different RTTs reach a
    similar window after the same wall-clock time (unlike Reno)."""
    results = {}
    for rtt in (0.025, 0.1):
        cca = Cubic()
        conn = FakeConn(rtt=rtt)
        cca.ssthresh = 30.0
        cca.cwnd = 30.0
        cca.w_max = 30.0  # epoch starts at cwnd: pure convex growth
        steps = int(20.0 / rtt)
        for step in range(steps):
            conn.sim.now = rtt * step
            cca.on_ack(ack(int(cca.cwnd)), conn)
        results[rtt] = cca.cwnd
    ratio = results[0.025] / results[0.1]
    assert 0.5 < ratio < 2.0, f"cubic growth should be ~RTT-independent: {results}"


def test_no_growth_during_recovery():
    cca = Cubic()
    conn = FakeConn()
    conn.in_recovery = True
    before = cca.cwnd
    cca.on_ack(ack(5), conn)
    assert cca.cwnd == before


def test_rto_resets_to_one():
    cca = Cubic()
    conn = FakeConn()
    cca.cwnd = 50.0
    cca.on_rto(conn)
    assert cca.cwnd == 1.0
    assert cca.epoch_start is None


def test_tcp_friendly_region_tracks_reno():
    """At high loss the w_est (Reno-equivalent) floor governs."""
    cca = Cubic()
    conn = FakeConn(rtt=0.05)
    cca.ssthresh = 10.0
    cca.cwnd = 10.0
    cca.w_max = 10.5  # tiny cubic target
    for step in range(100):
        conn.sim.now = 0.05 * step
        cca.on_ack(ack(int(cca.cwnd)), conn)
    # w_est grows ~0.53 packets per RTT; after 100 RTTs the window must
    # have followed it well past the stale cubic plateau.
    assert cca.cwnd > 20
