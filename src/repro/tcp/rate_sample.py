"""Delivery rate estimation (Cheng, Cardwell et al.): the state.

draft-cheng-iccrg-delivery-rate-estimation is the measurement substrate
BBR's bandwidth filter consumes. Its three steps run inline in
:class:`~repro.tcp.connection.TcpSender`, on the per-packet and per-ACK
paths: ``SendPacket`` stamps each transmission in ``_try_send``,
``UpdateRateSample`` runs for each newly delivered packet in both ACK
loops of ``send``, and ``GenerateRateSample`` finishes the per-ACK
:class:`RateSample` in its tail. This module holds the state those steps
share. The same sample object is handed to every CCA on each ACK, so
loss-based CCAs can also observe delivery rate if they wish.
"""

from __future__ import annotations

from typing import Optional


class RateSample:
    """A delivery rate sample covering one ACK's newly delivered data.

    Attributes mirror the draft: ``delivery_rate`` is in packets per
    second (the library's sequence space is packet-numbered), ``rtt`` is
    the ACK's RTT sample if one was taken, and ``is_app_limited`` marks
    samples that may underestimate the path capacity.
    ``prior_in_flight`` is the pipe estimate the connection had before
    the ACK.

    ``RateSample()`` is an empty sample. The ACK handler skips this
    ``__init__``: it builds one sample per ACK with ``__new__`` and
    fills every slot itself, one Python call less per ACK.
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

    def __init__(self) -> None:
        self.delivered = 0
        self.prior_delivered = 0
        self.interval = 0.0
        self.delivery_rate: Optional[float] = None
        self.rtt: Optional[float] = None
        self.is_app_limited = False
        self.prior_in_flight = 0
        self.newly_acked = 0
        self.newly_lost = 0


class PacketMeta:
    """Per-in-flight-packet state: the draft's send stamps plus the
    sender's scoreboard flags.

    There is no ``__init__``: the sender's send loop builds every
    instance and stamps it in place, so a new transmission costs no
    Python call of its own.
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

    # Stamped on every (re)transmission; delivered_time becomes None
    # once the packet has been counted as delivered.
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
    """Per-connection delivery accounting (the draft's connection state).

    ``delivered`` counts packets delivered so far, ``delivered_time`` is
    when the latest was, ``first_sent_time`` is the send time that opens
    the current sampling interval, and ``app_limited_until`` is the
    ``delivered`` marker of the last application-limited period (0 when
    none is open). :class:`~repro.tcp.connection.TcpSender` reads and
    writes them on its send and ACK paths.
    """

    __slots__ = ("delivered", "delivered_time", "first_sent_time", "app_limited_until")

    def __init__(self) -> None:
        self.delivered = 0
        self.delivered_time = 0.0
        self.first_sent_time = 0.0
        self.app_limited_until = 0  # 'delivered' marker; 0 = not app limited

    def mark_app_limited(self, in_flight: int) -> None:
        """Record that sending is application-limited right now."""
        self.app_limited_until = max(self.delivered + in_flight, 1)
