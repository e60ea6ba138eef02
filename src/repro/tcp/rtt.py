"""RTT estimation and retransmission timeout per RFC 6298.

Matches the Linux implementation's structure: SRTT/RTTVAR smoothing with
alpha=1/8, beta=1/4, Linux's 200 ms minimum RTO (which matters at scale,
where per-flow windows are a handful of packets and timeouts are part of
steady-state behaviour), and exponential backoff on repeated timeouts.
"""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """RFC 6298 smoothed RTT estimator and RTO calculator."""

    ALPHA = 0.125
    BETA = 0.25
    K = 4.0
    #: RTO before the first sample, seconds (RFC 6298 §2.1).
    INITIAL_RTO = 1.0
    #: RTO floor, seconds (Linux's ``TCP_RTO_MIN``).
    MIN_RTO = 0.2
    #: RTO ceiling, seconds, backoff included (RFC 6298 §2.5).
    MAX_RTO = 60.0
    #: Clock granularity G of RFC 6298 §2.2, seconds.
    CLOCK_GRANULARITY = 0.001

    __slots__ = (
        "srtt",
        "rttvar",
        "latest_rtt",
        "min_rtt",
        "rto",
        "_rto",
        "_backoff",
    )

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.latest_rtt: Optional[float] = None
        self.min_rtt: Optional[float] = None
        self._rto = self.INITIAL_RTO
        self._backoff = 1
        #: Current retransmission timeout, including backoff. A stored
        #: attribute, not a property, because the sender reads it on
        #: every transmission that arms the timer and every ACK that
        #: re-arms it; each method that moves ``_rto`` or ``_backoff``
        #: recomputes it.
        self.rto = min(self._rto * self._backoff, self.MAX_RTO)

    def on_measurement(self, rtt: float) -> None:
        """Incorporate a new RTT sample (from a non-retransmitted packet)."""
        if rtt <= 0:
            raise ValueError(f"rtt sample must be positive, got {rtt}")
        self.latest_rtt = rtt
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        # Runs on every RTT sample, so the abs/max/min builtins are
        # spelled as comparisons that pick the same operand they would.
        srtt = self.srtt
        if srtt is None:
            srtt = rtt
            rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            deviation = srtt - rtt
            if deviation < 0:
                deviation = -deviation
            rttvar = (1 - self.BETA) * self.rttvar + self.BETA * deviation
            srtt = (1 - self.ALPHA) * srtt + self.ALPHA * rtt
        self.srtt = srtt
        self.rttvar = rttvar
        variance_term = self.K * rttvar
        if variance_term > self.CLOCK_GRANULARITY:
            rto = srtt + variance_term
        else:
            rto = srtt + self.CLOCK_GRANULARITY
        if self.MIN_RTO > rto:
            rto = self.MIN_RTO
        if self.MAX_RTO < rto:
            rto = self.MAX_RTO
        self._rto = rto
        self._backoff = 1  # a valid sample clears backoff
        # min(rto * 1, MAX_RTO) is rto itself: it is already clamped.
        self.rto = rto

    def on_timeout(self) -> None:
        """Apply exponential backoff after an RTO fires (RFC 6298 §5.5)."""
        if self._backoff < 64:
            self._backoff *= 2
        self.rto = min(self._rto * self._backoff, self.MAX_RTO)

    def reset_backoff(self) -> None:
        """Clear backoff (e.g. when new data is ACKed after recovery)."""
        self._backoff = 1
        self.rto = min(self._rto * self._backoff, self.MAX_RTO)
