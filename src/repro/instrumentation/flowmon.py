"""The measurement window.

The paper reports every per-flow number with the first five minutes of
every experiment discarded (§3.2). Senders and the bottleneck queue
count over their lifetime; :class:`FlowMonitor` snapshots their
counters when the window opens and when it closes, and the window's
counts are the differences.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.queue import Queue
from ..tcp.connection import TcpSender

#: The windowed counts, named as the ``FlowResult`` fields they fill.
_COUNTS = ("delivered_packets", "halvings", "rtos", "queue_arrivals", "queue_drops")


class FlowMonitor:
    """Per-flow counts over one measurement window.

    A flow's delivered packets are its cumulatively ACKed ones, so
    retransmissions do not inflate goodput; its halvings and RTOs are
    the sender's fast-recovery entries and RTOs; its queue arrivals and
    drops are the bottleneck's. Open the window once every event before
    its start has run and none at it, so an event due exactly at the
    start is inside.
    """

    def __init__(self, sim: Simulator, senders: Sequence[TcpSender], queue: Queue) -> None:
        self.sim = sim
        self.senders = senders
        self.queue = queue
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None
        self._opened: Dict[int, Tuple[int, ...]] = {}
        self._closed: Dict[int, Tuple[int, ...]] = {}

    def _snapshot(self) -> Dict[int, Tuple[int, ...]]:
        arrivals = self.queue.arrivals_by_flow
        drops = self.queue.drops_by_flow
        return {
            s.flow_id: (
                s.snd_una,
                s.stats.loss_recovery_events,
                s.stats.rto_events,
                arrivals.get(s.flow_id, 0),
                drops.get(s.flow_id, 0),
            )
            for s in self.senders
        }

    def open_window(self, start: float) -> None:
        """Open the window that starts at ``start``."""
        self.window_start = start
        self._opened = self._snapshot()

    def close_window(self) -> None:
        """Close the window now."""
        self.window_end = self.sim.now
        self._closed = self._snapshot()

    @property
    def duration(self) -> float:
        """The window's length; 0 if it closed before it started."""
        if self.window_start is None or self.window_end is None:
            raise RuntimeError("measurement window not opened/closed")
        return max(0.0, self.window_end - self.window_start)

    def counts(self, flow_id: int) -> Dict[str, int]:
        """One flow's counts inside the window, keyed by ``FlowResult`` field."""
        if flow_id not in self._opened or flow_id not in self._closed:
            raise RuntimeError("measurement window not opened/closed")
        deltas = zip(self._closed[flow_id], self._opened[flow_id])
        return {name: end - start for name, (end, start) in zip(_COUNTS, deltas)}
