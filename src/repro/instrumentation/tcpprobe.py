"""tcpprobe-style congestion window instrumentation.

The paper measures the CWND halving rate with the Linux ``tcpprobe``
module. In this simulator the halving counts themselves live on the
sender (``TcpSender.stats.halvings``/``rtos``, cut at the warm-up), so
results never need a probe. :class:`CwndProbe` is the optional trace
side of tcpprobe: it subscribes to one flow's ``cwnd`` events on an
:class:`~repro.obs.bus.EventBus` and records the window series that
:func:`repro.trace.write_cwnd_csv` exports, alongside per-kind counts.
Any number of other observers can watch the same sender concurrently.
"""

from __future__ import annotations

from typing import List, Tuple

from ..obs.bus import EventBus

#: (time, kind, cwnd) tuples; kind in {"ack", "loss_event", "rto", "recovery_exit"}.
CwndEvent = Tuple[float, str, float]


class CwndProbe:
    """Records cwnd events for one flow.

    Parameters
    ----------
    record_samples:
        Keep the full per-ACK cwnd time series (memory heavy at scale;
        the per-kind counters are always kept).
    start_time:
        Events before this time are not counted (the paper discards the
        warm-up period).
    """

    def __init__(self, record_samples: bool = False, start_time: float = 0.0) -> None:
        self.record_samples = record_samples
        self.start_time = start_time
        self.halvings = 0
        self.rtos = 0
        self.recovery_exits = 0
        self.samples: List[CwndEvent] = []
        self.last_cwnd: float = 0.0
        self._subscribed = False

    def subscribe(self, bus: EventBus, flow: int) -> None:
        """Observe one flow's cwnd events through an event bus.

        The per-flow subscription keeps dispatch O(1) per event no
        matter how many flows (and probes) share the bus.
        """
        if self._subscribed:
            raise RuntimeError("probe already subscribed to a bus")

        def on_bus_event(now: float, flow_id: int, kind: str, cwnd: float) -> None:
            self.on_event(now, kind, cwnd)

        bus.subscribe("cwnd", on_bus_event, flow=flow)
        self._subscribed = True

    def on_event(self, now: float, kind: str, cwnd: float) -> None:
        self.last_cwnd = cwnd
        if now < self.start_time:
            return
        if kind == "loss_event":
            self.halvings += 1
        elif kind == "rto":
            self.rtos += 1
        elif kind == "recovery_exit":
            self.recovery_exits += 1
        if self.record_samples:
            self.samples.append((now, kind, cwnd))

    @property
    def congestion_events(self) -> int:
        """Window-reduction events: fast-recovery entries plus RTOs.

        This is the paper's "CWND halving" count — each loss event
        reduces the window once no matter how many packets the burst
        dropped.
        """
        return self.halvings + self.rtos
