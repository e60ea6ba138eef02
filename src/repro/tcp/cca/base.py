"""Congestion control algorithm (CCA) interface.

CCAs plug into :class:`repro.tcp.connection.TcpSender` through a small
hook surface modelled on the Linux ``tcp_congestion_ops`` vtable:

- :meth:`CongestionControl.on_ack` — every ACK, with a delivery
  :class:`~repro.tcp.rate_sample.RateSample`;
- :meth:`CongestionControl.on_loss_event` — on entry to fast recovery
  (one call per loss *event*, i.e. per window, not per lost packet —
  this is exactly the "CWND halving" the paper measures with tcpprobe);
- :meth:`CongestionControl.on_recovery_exit` — when recovery completes;
- :meth:`CongestionControl.on_rto` — when the retransmission timer fires.

A CCA owns ``cwnd`` (in MSS-sized packets, may be fractional) and an
optional ``pacing_rate`` (bits/second; ``None`` means pure ACK clocking).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..rate_sample import RateSample

if TYPE_CHECKING:  # pragma: no cover
    from ..connection import TcpSender


class CongestionControl:
    """Base class for congestion control algorithms."""

    #: Human-readable algorithm name, used in results and CLI.
    name = "base"

    #: Linux-style initial window (RFC 6928).
    INITIAL_CWND = 10.0

    #: Absolute floor on the congestion window.
    MIN_CWND = 2.0

    #: Pacing rate in bits/second, or ``None`` for ACK clocking. A plain
    #: class attribute, read on every send attempt; a pacing CCA such as
    #: BBR overrides it with a property.
    pacing_rate: Optional[float] = None

    def __init__(self) -> None:
        self.cwnd: float = self.INITIAL_CWND

    def on_ack(self, rs: RateSample, conn: "TcpSender") -> None:
        """Process one ACK. ``rs.newly_acked`` packets were delivered."""

    def on_loss_event(self, conn: "TcpSender") -> None:
        """A loss event was detected and fast recovery is starting."""

    def on_recovery_exit(self, conn: "TcpSender") -> None:
        """Fast recovery (or RTO recovery) completed."""

    def on_rto(self, conn: "TcpSender") -> None:
        """The retransmission timeout fired."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(cwnd={self.cwnd:.2f})"
