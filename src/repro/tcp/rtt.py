"""RTT estimation and retransmission timeout per RFC 6298.

Matches the Linux implementation's structure: SRTT/RTTVAR smoothing with
alpha=1/8, beta=1/4, a configurable minimum RTO (Linux uses 200 ms,
which matters at scale where per-flow windows are a handful of packets
and timeouts are part of steady-state behaviour), and exponential
backoff on repeated timeouts.
"""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """RFC 6298 smoothed RTT estimator and RTO calculator."""

    ALPHA = 0.125
    BETA = 0.25
    K = 4.0

    __slots__ = (
        "initial_rto",
        "min_rto",
        "max_rto",
        "granularity",
        "srtt",
        "rttvar",
        "latest_rtt",
        "min_rtt",
        "rto",
        "_rto",
        "_backoff",
    )

    def __init__(
        self,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        clock_granularity: float = 0.001,
    ) -> None:
        if not 0 < min_rto <= max_rto:
            raise ValueError("require 0 < min_rto <= max_rto")
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.granularity = clock_granularity
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.latest_rtt: Optional[float] = None
        self.min_rtt: Optional[float] = None
        self._rto = initial_rto
        self._backoff = 1
        #: Current retransmission timeout, including backoff. A stored
        #: attribute, not a property, because the sender reads it on
        #: every transmission that arms the timer and every ACK that
        #: re-arms it; each method that moves ``_rto`` or ``_backoff``
        #: recomputes it.
        self.rto = min(self._rto * self._backoff, self.max_rto)

    def on_measurement(self, rtt: float) -> None:
        """Incorporate a new RTT sample (from a non-retransmitted packet)."""
        if rtt <= 0:
            raise ValueError(f"rtt sample must be positive, got {rtt}")
        self.latest_rtt = rtt
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self._rto = self.srtt + max(self.granularity, self.K * self.rttvar)
        self._rto = min(max(self._rto, self.min_rto), self.max_rto)
        self._backoff = 1  # a valid sample clears backoff
        self.rto = min(self._rto * self._backoff, self.max_rto)

    def on_timeout(self) -> None:
        """Apply exponential backoff after an RTO fires (RFC 6298 §5.5)."""
        if self._backoff < 64:
            self._backoff *= 2
        self.rto = min(self._rto * self._backoff, self.max_rto)

    def reset_backoff(self) -> None:
        """Clear backoff (e.g. when new data is ACKed after recovery)."""
        self._backoff = 1
        self.rto = min(self._rto * self._backoff, self.max_rto)
