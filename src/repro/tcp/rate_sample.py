"""Delivery rate estimation (Cheng, Cardwell et al.).

Implements the per-connection bookkeeping and per-ACK rate-sample
generation from draft-cheng-iccrg-delivery-rate-estimation, which is the
measurement substrate BBR's bandwidth filter consumes. The same sample
object is handed to every CCA on each ACK, so loss-based CCAs can also
observe delivery rate if they wish.
"""

from __future__ import annotations

from typing import Optional


class RateSample:
    """A delivery rate sample covering one ACK's newly delivered data.

    Attributes mirror the draft: ``delivery_rate`` is in packets per
    second (the library's sequence space is packet-numbered), ``rtt`` is
    the ACK's RTT sample if one was taken, and ``is_app_limited`` marks
    samples that may underestimate the path capacity. The owning
    connection builds one per ACK with the pipe estimate it had before
    the ACK (``prior_in_flight``).
    """

    __slots__ = (
        "delivered",
        "prior_delivered",
        "interval",
        "delivery_rate",
        "rtt",
        "is_app_limited",
        "prior_in_flight",
        "newly_acked",
        "newly_lost",
    )

    def __init__(self, prior_in_flight: int = 0) -> None:
        self.delivered = 0
        self.prior_delivered = 0
        self.interval = 0.0
        self.delivery_rate: Optional[float] = None
        self.rtt: Optional[float] = None
        self.is_app_limited = False
        self.prior_in_flight = prior_in_flight
        self.newly_acked = 0
        self.newly_lost = 0


class PacketMeta:
    """Per-in-flight-packet state: the draft's send stamps plus the
    sender's scoreboard flags.

    There is no ``__init__``: :meth:`DeliveryRateEstimator.on_packet_sent`
    builds every instance and stamps it in the same call, so a new
    transmission costs one Python call rather than two.
    """

    __slots__ = (
        "sent_time",
        "first_sent_time",
        "delivered",
        "delivered_time",
        "is_app_limited",
        "retransmitted",
        "retx_pending",
        "in_retrans_out",
        "sacked",
        "lost",
    )

    # Stamped by on_packet_sent on every (re)transmission;
    # delivered_time becomes None once the packet has been counted.
    sent_time: float
    first_sent_time: float
    delivered: int
    delivered_time: Optional[float]
    is_app_limited: bool
    # Scoreboard flags, owned by the sender and all False on a new
    # packet. 'retransmitted' is sticky (Karn's rule: never RTT-sample
    # such a packet); 'in_retrans_out' tracks whether it currently
    # counts in the pipe's retrans_out term; 'retx_pending' means it
    # sits in the retransmission queue.
    retransmitted: bool
    retx_pending: bool
    in_retrans_out: bool
    sacked: bool
    lost: bool


class DeliveryRateEstimator:
    """Per-connection delivery accounting.

    The owning connection calls :meth:`on_packet_sent` when transmitting,
    which for a new packet also builds its :class:`PacketMeta`.
    Per ACK it builds a :class:`RateSample`, calls
    :meth:`on_packet_delivered` for each packet newly cumulatively ACKed
    or SACKed, then :meth:`finish_sample` to complete the sample.
    """

    __slots__ = ("delivered", "delivered_time", "first_sent_time", "app_limited_until")

    def __init__(self) -> None:
        self.delivered = 0
        self.delivered_time = 0.0
        self.first_sent_time = 0.0
        self.app_limited_until = 0  # 'delivered' marker; 0 = not app limited

    def on_packet_sent(
        self, pkt_state: Optional[PacketMeta], now: float, in_flight: int
    ) -> PacketMeta:
        """Stamp per-packet send state (draft's ``SendPacket``).

        ``pkt_state`` is a retransmitted packet's state, or ``None`` for
        a new packet, whose :class:`PacketMeta` is built here with every
        scoreboard flag clear. Returns the stamped state.
        """
        if in_flight == 0:
            self.first_sent_time = now
            self.delivered_time = now
        if pkt_state is None:
            pkt_state = PacketMeta.__new__(PacketMeta)
            pkt_state.retransmitted = False
            pkt_state.retx_pending = False
            pkt_state.in_retrans_out = False
            pkt_state.sacked = False
            pkt_state.lost = False
        pkt_state.sent_time = now
        pkt_state.first_sent_time = self.first_sent_time
        pkt_state.delivered = self.delivered
        pkt_state.delivered_time = self.delivered_time
        pkt_state.is_app_limited = self.app_limited_until > 0
        return pkt_state

    def on_packet_delivered(self, rs: RateSample, pkt_state: PacketMeta, now: float) -> None:
        """Account one newly delivered packet (draft's ``UpdateRateSample``)."""
        if pkt_state.delivered_time is None:
            return  # already accounted through an earlier SACK
        self.delivered += 1
        self.delivered_time = now
        if pkt_state.delivered >= rs.prior_delivered:
            rs.prior_delivered = pkt_state.delivered
            rs.is_app_limited = pkt_state.is_app_limited
            send_elapsed = pkt_state.sent_time - pkt_state.first_sent_time
            ack_elapsed = self.delivered_time - pkt_state.delivered_time
            rs.interval = max(send_elapsed, ack_elapsed)
            self.first_sent_time = pkt_state.sent_time
        pkt_state.delivered_time = None
        if self.app_limited_until and self.delivered > self.app_limited_until:
            self.app_limited_until = 0

    def finish_sample(self, rs: RateSample, min_rtt_hint: Optional[float]) -> RateSample:
        """Finalise the per-ACK sample, computing ``delivery_rate``."""
        rs.delivered = self.delivered - rs.prior_delivered
        if rs.delivered <= 0 or rs.interval <= 0:
            rs.delivery_rate = None
            return rs
        if min_rtt_hint is not None and rs.interval < min_rtt_hint:
            # Interval shorter than the path's min RTT cannot yield a
            # trustworthy bandwidth sample (draft §3.3).
            rs.delivery_rate = None
            return rs
        rs.delivery_rate = rs.delivered / rs.interval
        return rs

    def mark_app_limited(self, in_flight: int) -> None:
        """Record that sending is application-limited right now."""
        self.app_limited_until = max(self.delivered + in_flight, 1)
