"""Per-flow throughput accounting.

The paper reports per-flow throughput with the first five minutes of
every experiment discarded. :class:`FlowMonitor` implements that
measurement: it snapshots each sender's cumulative delivered count at a
warm-up cut and computes goodput over the measured window.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..tcp.connection import TcpSender
from ..units import MSS


class FlowMonitor:
    """Measures per-flow goodput over a configurable window.

    Goodput counts cumulatively ACKed packets (application bytes at
    ``MSS`` each), i.e. retransmissions do not inflate it.
    """

    def __init__(self, sim: Simulator, senders: Sequence[TcpSender]) -> None:
        self.sim = sim
        self.senders = list(senders)
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None
        self._start_delivered: Dict[int, int] = {}
        self._end_delivered: Dict[int, int] = {}

    def progress_marks(self) -> Dict[int, Tuple[int, int]]:
        """Per-flow ``(delivered, acks_received)`` counters, keyed by id.

        The stall signature :class:`repro.faults.watchdog.SimWatchdog`
        samples: both counters frozen means no delivery progress — unlike
        ``packets_sent``, which keeps growing while a sender retransmits
        into a dead link.
        """
        return {
            s.flow_id: (s.delivered_packets, s.stats.acks_received)
            for s in self.senders
        }

    def open_window(self) -> None:
        """Start the measurement window (call at the end of warm-up)."""
        self.window_start = self.sim.now
        self._start_delivered = {s.flow_id: s.snd_una for s in self.senders}

    def close_window(self) -> None:
        """End the measurement window (call at experiment end)."""
        self.window_end = self.sim.now
        self._end_delivered = {s.flow_id: s.snd_una for s in self.senders}

    def _require_window(self) -> float:
        if self.window_start is None or self.window_end is None:
            raise RuntimeError("measurement window not opened/closed")
        duration = self.window_end - self.window_start
        if duration <= 0:
            raise RuntimeError("measurement window has zero duration")
        return duration

    def delivered_packets(self, flow_id: int) -> int:
        """Packets cumulatively ACKed inside the window for one flow."""
        self._require_window()
        return self._end_delivered[flow_id] - self._start_delivered[flow_id]

    def goodput_bps(self, flow_id: int) -> float:
        """Application goodput of one flow in bits/second."""
        duration = self._require_window()
        return self.delivered_packets(flow_id) * MSS * 8.0 / duration
