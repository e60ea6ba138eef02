"""Tests for delivery-rate estimation (the BBR measurement substrate)."""

import pytest

from repro.tcp.rate_sample import DeliveryRateEstimator, RateSample


def send(est, now, in_flight):
    return est.on_packet_sent(None, now, in_flight)


def test_send_stamps_connection_state():
    est = DeliveryRateEstimator()
    meta = send(est, 1.0, 0)
    assert meta.delivered == 0
    assert meta.delivered_time == 1.0  # idle restart resets to now
    assert meta.first_sent_time == 1.0
    assert meta.is_app_limited is False


def test_new_packet_state_has_clear_scoreboard_flags():
    meta = send(DeliveryRateEstimator(), 1.0, 0)
    assert not (
        meta.retransmitted or meta.retx_pending or meta.in_retrans_out
        or meta.sacked or meta.lost
    )


def test_retransmission_restamps_the_same_state():
    est = DeliveryRateEstimator()
    meta = send(est, 1.0, 0)
    meta.retransmitted = True
    assert est.on_packet_sent(meta, 2.0, 3) is meta
    assert meta.sent_time == 2.0
    assert meta.first_sent_time == 1.0  # pipe not empty: no idle restart
    assert meta.retransmitted  # scoreboard flags are left alone


def test_steady_rate_measured_exactly():
    """Steady state: one packet sent and one delivered every 10 ms with
    an RTT of 100 ms -> delivery rate = 100 packets/second."""
    est = DeliveryRateEstimator()
    metas = {}
    rate = None
    for tick in range(40):
        now = 0.01 * tick
        if tick >= 10:
            rs = RateSample(10)
            est.on_packet_delivered(rs, metas[tick - 10], now)
            rs = est.finish_sample(rs, min_rtt_hint=None)
            if rs.delivery_rate is not None:
                rate = rs.delivery_rate
        metas[tick] = send(est, now, in_flight=10 if tick else 0)
    assert rate == pytest.approx(100.0, rel=0.05)


def test_double_delivery_ignored():
    est = DeliveryRateEstimator()
    meta = send(est, 0.0, 0)
    rs = RateSample(1)
    est.on_packet_delivered(rs, meta, 0.1)
    assert est.delivered == 1
    est.on_packet_delivered(rs, meta, 0.2)  # SACK then cumACK of same pkt
    assert est.delivered == 1


def test_sample_invalid_without_deliveries():
    est = DeliveryRateEstimator()
    rs = RateSample(0)
    rs = est.finish_sample(rs, min_rtt_hint=None)
    assert rs.delivery_rate is None
    assert rs.delivered == 0


def test_interval_below_min_rtt_rejected():
    # A burst sent over 0.5 ms whose ACKs arrive compressed within
    # 0.4 ms: both elapsed terms sit far below the 50 ms min RTT, so the
    # (over-optimistic) sample must be discarded (draft §3.3).
    est = DeliveryRateEstimator()
    est.delivered = 5
    est.delivered_time = 0.9998
    est.first_sent_time = 0.9995
    meta = send(DeliveryRateEstimator(), 0.0, 0)
    meta.sent_time = 1.0
    meta.first_sent_time = 0.9995
    meta.delivered = 5
    meta.delivered_time = 0.9998
    rs = RateSample(1)
    est.on_packet_delivered(rs, meta, 1.0002)
    rs = est.finish_sample(rs, min_rtt_hint=0.050)
    assert rs.delivery_rate is None
    # The same geometry with no min-RTT floor is accepted.
    est2 = DeliveryRateEstimator()
    est2.delivered = 5
    est2.delivered_time = 0.9998
    est2.first_sent_time = 0.9995
    meta2 = send(DeliveryRateEstimator(), 0.0, 0)
    meta2.sent_time = 1.0
    meta2.first_sent_time = 0.9995
    meta2.delivered = 5
    meta2.delivered_time = 0.9998
    rs2 = RateSample(1)
    est2.on_packet_delivered(rs2, meta2, 1.0002)
    rs2 = est2.finish_sample(rs2, min_rtt_hint=None)
    assert rs2.delivery_rate is not None


def test_app_limited_marking_and_clearing():
    est = DeliveryRateEstimator()
    est.mark_app_limited(in_flight=2)
    assert est.app_limited_until == 2
    meta = send(est, 0.0, 0)
    assert meta.is_app_limited
    # Deliver three packets to pass the app-limited marker.
    for i in range(3):
        m = send(est, 0.01 * i, 1)
        rs = RateSample(1)
        est.on_packet_delivered(rs, m, 0.1 + 0.01 * i)
    assert est.app_limited_until == 0


def test_prior_in_flight_recorded():
    est = DeliveryRateEstimator()
    rs = RateSample(prior_in_flight=42)
    assert rs.prior_in_flight == 42


def test_idle_restart_resets_first_sent_time():
    est = DeliveryRateEstimator()
    m1 = send(est, 0.0, 0)
    rs = RateSample(1)
    est.on_packet_delivered(rs, m1, 1.0)
    est.finish_sample(rs, None)
    # Long idle, then a new packet with nothing in flight.
    m2 = send(est, 10.0, 0)
    assert m2.first_sent_time == 10.0
    rs2 = RateSample(1)
    est.on_packet_delivered(rs2, m2, 10.1)
    rs2 = est.finish_sample(rs2, None)
    # The idle gap must not depress the rate sample: interval ~0.1 s.
    assert rs2.delivery_rate == pytest.approx(10.0, rel=0.1)
