"""TCP NewReno congestion control (RFC 5681 / RFC 6582).

The classic AIMD loss-based algorithm the Mathis model describes:
additive increase of one MSS per RTT in congestion avoidance, window
halving on each loss event, slow start below ``ssthresh``.

The Mathis constant the paper derives empirically (Table 1) corresponds
to this algorithm with delayed ACKs and SACK — both of which the
surrounding :mod:`repro.tcp.connection` machinery provides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..rate_sample import RateSample
from .base import CongestionControl

if TYPE_CHECKING:  # pragma: no cover
    from ..connection import TcpSender


class NewReno(CongestionControl):
    """NewReno: slow start, AIMD congestion avoidance, halving on loss."""

    name = "newreno"

    #: Multiplicative decrease on a loss event (RFC 5681's halving).
    BETA = 0.5

    def __init__(self) -> None:
        super().__init__()
        self.ssthresh = float("inf")

    def on_ack(self, rs: RateSample, conn: "TcpSender") -> None:
        if rs.newly_acked <= 0 or conn.in_recovery:
            # No growth while recovering (the SACK pipe rule governs
            # transmission; cwnd stays at the post-halving value).
            return
        if self.cwnd < self.ssthresh:  # slow start
            self.cwnd += rs.newly_acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            self.cwnd += rs.newly_acked / self.cwnd

    def on_loss_event(self, conn: "TcpSender") -> None:
        self.ssthresh = max(self.cwnd * self.BETA, self.MIN_CWND)
        self.cwnd = self.ssthresh

    def on_rto(self, conn: "TcpSender") -> None:
        self.ssthresh = max(conn.in_flight * self.BETA, self.MIN_CWND)
        self.cwnd = 1.0
