"""TCP CUBIC congestion control (RFC 8312).

The default CCA on Linux and Windows Server, and the baseline the paper
competes NewReno and BBR against. Implements the cubic window growth
function with the TCP-friendly region, fast convergence, and
``beta = 0.7`` multiplicative decrease. HyStart is not implemented
(standard slow start is used); this does not affect steady-state
competition results, which is what the paper measures after its warm-up
cut.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..rate_sample import RateSample
from .base import CongestionControl

if TYPE_CHECKING:  # pragma: no cover
    from ..connection import TcpSender


class Cubic(CongestionControl):
    """CUBIC per RFC 8312."""

    name = "cubic"

    #: RFC 8312 constants.
    C = 0.4
    BETA = 0.7

    def __init__(self) -> None:
        super().__init__()
        self.ssthresh = float("inf")
        self.w_max = 0.0
        self.k = 0.0
        self.epoch_start: Optional[float] = None
        self.w_est = 0.0

    def on_ack(self, rs: RateSample, conn: "TcpSender") -> None:
        if rs.newly_acked <= 0 or conn.in_recovery:
            return
        if self.cwnd < self.ssthresh:  # slow start
            self.cwnd += rs.newly_acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
            return
        now = conn.sim.now
        rtt = conn.rtt.srtt or conn.rtt.latest_rtt
        if rtt is None or rtt <= 0:
            # No RTT estimate yet; grow like Reno until one exists.
            self.cwnd += rs.newly_acked / self.cwnd
            return
        if self.epoch_start is None:
            self._start_epoch(now, rtt)
        t = now - self.epoch_start
        target = self._w_cubic(t + rtt)
        # TCP-friendly region (RFC 8312 §4.2): track the window standard
        # AIMD would have reached.
        self.w_est += (
            3.0 * (1.0 - self.BETA) / (1.0 + self.BETA) * rs.newly_acked / self.cwnd
        )
        if self._w_cubic(t) < self.w_est:
            if self.cwnd < self.w_est:
                self.cwnd = self.w_est
            return
        # Concave/convex region: approach 'target' within one RTT.
        if target > self.cwnd:
            self.cwnd += (target - self.cwnd) / self.cwnd * rs.newly_acked
        else:
            # Window is above target (e.g. just after epoch start):
            # minimal growth keeps the ACK clock alive (RFC: 1% of cwnd
            # per RTT is acceptable; we hold the window instead).
            self.cwnd += 0.01 * rs.newly_acked / self.cwnd

    def _start_epoch(self, now: float, rtt: float) -> None:
        self.epoch_start = now
        if self.w_max < self.cwnd:
            self.w_max = self.cwnd
        self.k = ((self.w_max - self.cwnd) / self.C) ** (1.0 / 3.0)
        self.w_est = self.cwnd

    def _w_cubic(self, t: float) -> float:
        return self.C * (t - self.k) ** 3 + self.w_max

    def on_loss_event(self, conn: "TcpSender") -> None:
        self.epoch_start = None
        if self.cwnd < self.w_max:
            # Fast convergence, always on as in Linux: release bandwidth
            # faster when the available share shrank.
            self.w_max = self.cwnd * (2.0 - self.BETA) / 2.0
        else:
            self.w_max = self.cwnd
        self.cwnd = max(self.cwnd * self.BETA, self.MIN_CWND)
        self.ssthresh = max(self.cwnd, self.MIN_CWND)

    def on_rto(self, conn: "TcpSender") -> None:
        self.epoch_start = None
        self.w_max = self.cwnd
        self.ssthresh = max(conn.in_flight * self.BETA, self.MIN_CWND)
        self.cwnd = 1.0
