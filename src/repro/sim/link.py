"""The rate-limited link, and the interfaces path elements share.

Every element forwards packets toward a *sink* — any object with a
``send(packet)`` method (another element or an endpoint) — or, for the
link, toward one such ``send`` per flow. This composes into per-flow
paths built by :mod:`repro.sim.topology`.

:class:`Link` is a finite-rate link with a queue discipline in front of
the transmitter: the bottleneck (the BESS switch port in the paper). It
has no propagation delay; the other element of the dumbbell,
:class:`~repro.sim.netem.NetemDelay`, adds pure delay, and the ACK
path's netem element carries each flow's whole base RTT. The 25 Gbps
edge links never congest in the paper's testbed, so modelling them
would only add events without changing behaviour.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Optional, Protocol

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


class Link:
    """A rate-limited link: queue discipline + transmitter.

    Packets offered while the transmitter is busy wait in ``queue``;
    packets that the queue rejects are dropped (the queue handles drop
    accounting and bus forwarding). The transmitter serialises one
    packet at a time at ``rate_bps`` and, as its serialisation
    completes, hands it to ``routes[packet.flow_id]``: :attr:`routes`
    lists the bound ``send`` of each flow's sink, so a delivery on a
    link shared by many flows (the dumbbell's bottleneck) is one call
    with no demultiplexing hop. A link carrying one flow passes
    ``routes=[sink.send]``.

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
        "queue",
        "routes",
        "busy",
        "up",
        "transmitted_packets",
        "transmitted_bytes",
        "impaired_drops",
        "loss_model",
        "_tx_times",
        "_sanitizer",
        "_heap",
        "_next_seq",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        queue: Optional[Queue] = None,
        routes: Optional[List[Callable[[Packet], None]]] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.queue = queue if queue is not None else DropTailQueue(1_000_000)
        #: Per-flow delivery: ``routes[flow_id]`` receives the packet. A
        #: topology may append routes after construction.
        self.routes: List[Callable[[Packet], None]] = routes if routes is not None else []
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
        # The transmit-complete event is pushed onto the simulator's heap
        # directly, with a sequence number from its shared stream (see
        # the design notes in repro.sim.engine).
        self._heap = sim._heap
        self._next_seq = sim.next_seq
        if sim.sanitizer is not None:
            sim.sanitizer.watch_queue(self.queue)

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link (entry point for upstream elements)."""
        if self.loss_model is not None and self.loss_model.should_drop(packet):
            self.impaired_drops += 1
            return
        if self.queue.offer(self.sim.now, packet):
            if not self.busy and self.up:
                self._finish(None)

    def set_down(self) -> None:
        """Take the link down (blackout). Idempotent."""
        self.up = False

    def set_up(self) -> None:
        """Restore a downed link and resume draining the queue."""
        if self.up:
            return
        self.up = True
        if not self.busy:
            self._finish(None)

    def set_rate(self, rate_bps: float) -> None:
        """Change the link rate; applies from the next serialisation."""
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_bps = rate_bps
        self._tx_times.clear()

    def _finish(self, done: Optional[Packet]) -> None:
        """Transmit-complete handler, which also starts the transmitter.

        ``done`` is the packet whose serialisation just completed: it is
        counted and handed to its flow's route. Then the next queued
        packet, if any, starts serialising. An arrival or :meth:`set_up`
        that finds the transmitter idle calls this with ``done=None`` to
        run only the second half, so the drain code exists once and a
        busy link costs one call per packet.
        """
        sanitizer = self._sanitizer
        if done is not None:
            self.transmitted_packets += 1
            self.transmitted_bytes += done.size
            if sanitizer is not None:
                sanitizer.on_link_finish(self, done)
            self.routes[done.flow_id](done)
        if not self.up:
            self.busy = False
            return
        packet = self.queue.poll()
        if packet is None:
            self.busy = False
            return
        self.busy = True
        size = packet.size
        tx_time = self._tx_times.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.rate_bps
            self._tx_times[size] = tx_time
        at = self.sim.now + tx_time
        if sanitizer is not None:
            sanitizer.on_schedule(at)
        heappush(self._heap, [at, self._next_seq(), self._finish, (packet,)])
