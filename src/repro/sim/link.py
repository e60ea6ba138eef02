"""Network path elements: rate-limited links and pure-delay links.

Every element forwards packets toward a *sink* — any object with a
``send(packet)`` method (another element or an endpoint). This composes
into per-flow paths built by :mod:`repro.sim.topology`.

Two element types cover the dumbbell testbed:

- :class:`Link` — finite-rate link with a queue discipline in front of
  the transmitter and a propagation delay behind it. Used for the
  bottleneck (the BESS switch port in the paper).
- :class:`DelayLink` — infinite-rate, pure propagation delay. Used for
  the 25 Gbps edge links, which by construction never congest in the
  paper's testbed, so modelling their serialisation would only add
  events without changing behaviour.
"""

from __future__ import annotations

from typing import Optional, Protocol

from .engine import Simulator
from .packet import Packet
from .queue import DropTailQueue, Queue


class Sink(Protocol):
    """Anything that can accept a packet."""

    def send(self, packet: Packet) -> None: ...


class LossModel(Protocol):
    """A per-packet drop decision, consulted before a packet enters an
    element (e.g. the Gilbert–Elliott burst-loss channel in
    :mod:`repro.faults.gilbert`). Stateful models advance their state on
    every call, so the decision sequence is part of the run's seed-derived
    determinism."""

    def should_drop(self, packet: Packet) -> bool: ...


class DelayLink:
    """A fixed propagation delay with unlimited bandwidth.

    Zero-delay instances forward synchronously, avoiding a heap event —
    useful to splice monitors into a path for free.
    """

    __slots__ = ("sim", "delay", "sink", "forwarded_packets", "_schedule")

    def __init__(self, sim: Simulator, delay: float, sink: Optional[Sink] = None) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.delay = delay
        self.sink = sink
        self.forwarded_packets = 0
        # Bound-method fast path: one per-packet attribute hop instead
        # of two (the simulator is fixed for the element's lifetime).
        self._schedule = sim.schedule

    def send(self, packet: Packet) -> None:
        if self.sink is None:
            raise RuntimeError("DelayLink has no sink attached")
        self.forwarded_packets += 1
        # <= rather than ==: the constructor guarantees delay >= 0, and an
        # ordering guard keeps the fast path safe against float noise.
        if self.delay <= 0.0:
            self.sink.send(packet)
        else:
            self._schedule(self.delay, self.sink.send, packet)


class Link:
    """A rate-limited link: queue discipline + transmitter + propagation.

    Packets offered while the transmitter is busy wait in ``queue``;
    packets that the queue rejects are dropped (the queue handles drop
    accounting and bus forwarding). The transmitter serialises one
    packet at a time at ``rate_bps`` and delivers it to ``sink`` after an
    additional propagation ``delay``.

    Fault hooks (used by :mod:`repro.faults`):

    - :meth:`set_down` / :meth:`set_up` — a blackout. While down, the
      queue keeps accepting arrivals (and overflows naturally once full)
      but the transmitter is paused; a transmission already serialising
      when the link goes down still completes, exactly like a cable cut
      behind a store-and-forward switch port.
    - :meth:`set_rate` — bandwidth reduction/restoration; takes effect
      from the next serialisation.
    - :attr:`loss_model` — an optional channel-loss element consulted on
      every arrival *before* the queue, so channel losses are accounted
      separately (``impaired_drops``) from congestion drops.
    """

    __slots__ = (
        "sim",
        "rate_bps",
        "delay",
        "queue",
        "sink",
        "busy",
        "up",
        "transmitted_packets",
        "transmitted_bytes",
        "impaired_drops",
        "loss_model",
        "_tx_times",
        "_sanitizer",
        "_schedule",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay: float = 0.0,
        queue: Optional[Queue] = None,
        sink: Optional[Sink] = None,
        queue_capacity_bytes: int = 1_000_000,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("propagation delay must be non-negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue(queue_capacity_bytes)
        self.sink = sink
        self.busy = False
        self.up = True
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        #: Packets dropped by the channel-loss model (not queue drops).
        self.impaired_drops = 0
        self.loss_model: Optional[LossModel] = None
        # Serialisation-time memo, keyed by packet size. The cached value
        # is the result of the exact expression ``size * 8.0 / rate_bps``
        # — never a precomputed reciprocal, which would round differently
        # — so cached and uncached runs are bit-identical. Invalidated by
        # :meth:`set_rate`.
        self._tx_times: dict[int, float] = {}
        # The sanitizer is fixed at simulator construction; cache the
        # reference so the per-packet paths skip two attribute hops.
        self._sanitizer = sim.sanitizer
        self._schedule = sim.schedule
        if sim.sanitizer is not None:
            sim.sanitizer.watch_queue(self.queue)

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link (entry point for upstream elements)."""
        if self.loss_model is not None and self.loss_model.should_drop(packet):
            self.impaired_drops += 1
            return
        if self.queue.offer(self.sim.now, packet):
            if not self.busy and self.up:
                self._start_next()

    def set_down(self) -> None:
        """Take the link down (blackout). Idempotent."""
        self.up = False

    def set_up(self) -> None:
        """Restore a downed link and resume draining the queue."""
        if self.up:
            return
        self.up = True
        if not self.busy:
            self._start_next()

    def set_rate(self, rate_bps: float) -> None:
        """Change the link rate; applies from the next serialisation."""
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_bps = rate_bps
        self._tx_times.clear()

    def _start_next(self) -> None:
        if not self.up:
            self.busy = False
            return
        packet = self.queue.poll(self.sim.now)
        if packet is None:
            self.busy = False
            return
        self.busy = True
        size = packet.size
        tx_time = self._tx_times.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.rate_bps
            self._tx_times[size] = tx_time
        self._schedule(tx_time, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.size
        if self._sanitizer is not None:
            self._sanitizer.on_link_finish(self, packet)
        sink = self.sink
        if sink is None:
            raise RuntimeError("Link has no sink attached")
        # <= rather than ==: see DelayLink.send.
        if self.delay <= 0.0:
            sink.send(packet)
        else:
            self._schedule(self.delay, sink.send, packet)
        self._start_next()

    @property
    def utilization_possible_bytes(self) -> int:
        """Bytes this link could have carried since t=0 (for utilisation math)."""
        return int(self.rate_bps * self.sim.now / 8.0)
