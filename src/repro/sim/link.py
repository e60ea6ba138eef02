"""The rate-limited link, and the interfaces path elements share.

Elements forward packets toward a *sink*. An on-clock sink (a
:class:`Sink`: the link itself, a TCP sender) takes ``send(packet)``
at the current simulated time. A *timed* sink (a :class:`TimedSink`:
a TCP receiver, a netem element) takes ``send(packet, at)``, where
``at`` is the packet's arrival time, which may lie ahead of the clock.
This composes into per-flow paths built by :mod:`repro.sim.topology`.

:class:`Link` is a finite-rate link with a queue discipline in front of
the transmitter: the bottleneck (the BESS switch port in the paper). A
drop-tail FIFO port at a fixed rate is an analytic server: each
departure follows from the arrivals alone, ``D_k = max(A_k, D_{k-1}) +
L_k / C``. So the link computes a packet's departure when it admits
the packet and hands it to its flow's route at once, with that time,
instead of spending a heap event to reach it. The link has no
propagation delay; the other element of the dumbbell,
:class:`~repro.sim.netem.NetemDelay`, adds pure delay, and the ACK
path's netem element carries each flow's whole base RTT. The 25 Gbps
edge links never congest in the paper's testbed, so modelling them
would only add events without changing behaviour.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, List, Optional, Protocol, Tuple

from .engine import SimulationError, Simulator
from .packet import Packet
from .queue import DropTailQueue, Queue


class Sink(Protocol):
    """Anything that can accept a packet now."""

    def send(self, packet: Packet) -> None: ...


class TimedSink(Protocol):
    """Anything that can accept a packet arriving at time ``at``, which
    is never before the clock and may be ahead of it."""

    def send(self, packet: Packet, at: float) -> None: ...


class LossModel(Protocol):
    """A per-packet drop decision, consulted before a packet enters an
    element (e.g. the Gilbert–Elliott burst-loss channel in
    :mod:`repro.faults.gilbert`). Stateful models advance their state on
    every call, so the decision sequence is part of the run's seed-derived
    determinism."""

    def should_drop(self, packet: Packet) -> bool: ...


class Link:
    """A rate-limited link: queue discipline + transmitter.

    An arrival that the queue rejects is dropped (the queue handles drop
    accounting and bus forwarding). An admitted packet starts
    serialising at ``S = max(now, busy_until)`` and departs at ``F = S +
    size * 8 / rate_bps``, the same float operations a transmit-complete
    event chain would perform. The packet waits in ``queue`` until
    ``S``; the queue settles lazily, so the waiting packets whose start
    is before ``now`` leave it at the next admission or fault, before
    the queue's occupancy is read.

    If ``F`` is before :attr:`horizon`, the packet is handed to
    ``routes[packet.flow_id](packet, F)`` at admission, ahead of the
    clock by its queueing and serialisation delay. :attr:`routes` lists
    the bound ``send`` of each flow's timed sink, so a delivery on a
    link shared by many flows (the dumbbell's bottleneck) is one call
    with no demultiplexing hop; a link carrying one flow passes
    ``routes=[sink.send]``. A packet departing at or past the horizon is
    *parked* and delivered, in order, when :meth:`set_horizon` moves the
    horizon past it.

    The horizon is what keeps early delivery exact. Whatever can change
    a packet's departure, or what its receiver does at that time, must
    happen at or after the horizon: the fault injector keeps it at the
    next fault time, and ``run_experiment`` at the run's end. Without
    either it is infinite.

    Fault hooks (used by :mod:`repro.faults`), each applied at the
    current time, which must be at or past the horizon when packets are
    waiting (a :class:`~repro.sim.engine.SimulationError` otherwise):

    - :meth:`set_down` / :meth:`set_up` — a blackout. While down, the
      queue keeps accepting arrivals (and overflows naturally once full)
      but the transmitter is paused; a transmission already serialising
      when the link goes down still completes, exactly like a cable cut
      behind a store-and-forward switch port. The waiting packets are
      timed again when the link comes up.
    - :meth:`set_rate` — bandwidth reduction/restoration; takes effect
      from the next serialisation.
    - :meth:`set_capacity` — a buffer resize; shrinking evicts the
      newest waiting packets.
    - :attr:`loss_model` — an optional channel-loss element consulted on
      every arrival *before* the queue, so channel losses are accounted
      separately (``impaired_drops``) from congestion drops.
    """

    __slots__ = (
        "sim",
        "rate_bps",
        "queue",
        "routes",
        "up",
        "horizon",
        "busy_until",
        "transmitted_packets",
        "transmitted_bytes",
        "impaired_drops",
        "loss_model",
        "_tx_times",
        "_sanitizer",
        "_starts",
        "_parked",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        queue: Optional[Queue] = None,
        routes: Optional[List[Callable[[Packet, float], None]]] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.queue = queue if queue is not None else DropTailQueue(1_000_000)
        #: Per-flow delivery: ``routes[flow_id](packet, departure)``. A
        #: topology may append routes after construction.
        self.routes: List[Callable[[Packet, float], None]] = routes if routes is not None else []
        self.up = True
        #: Packets departing before this time are delivered at admission;
        #: later ones are parked until :meth:`set_horizon` moves it.
        self.horizon = math.inf
        #: Departure of the last packet given to the transmitter: the
        #: earliest start of the next one.
        self.busy_until = -math.inf
        #: Packets delivered (departures before the horizon so far).
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
        # Start times of the timed packets still in the queue, oldest
        # first: one per queued packet while the link is up, none while
        # it is down (a paused transmitter gives no start times).
        self._starts: Deque[float] = deque()
        # Timed packets not yet delivered, as (departure, packet).
        self._parked: Deque[Tuple[float, Packet]] = deque()
        if sim.sanitizer is not None:
            sim.sanitizer.watch_queue(self.queue)

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link (entry point for upstream elements)."""
        if self.loss_model is not None and self.loss_model.should_drop(packet):
            self.impaired_drops += 1
            return
        now = self.sim.now
        queue = self.queue
        # Settle the queue: the waiting packets whose serialisation
        # started before now leave it. A start at now itself still
        # waits: an arrival at the instant its predecessor departs
        # finds it queued.
        starts = self._starts
        while starts and starts[0] < now:
            starts.popleft()
            queue.poll()
        if queue.offer(now, packet) and self.up:
            self._transmit(packet, now)

    def _transmit(self, packet: Packet, now: float) -> None:
        """Time a queued packet that follows every timed one, then
        deliver or park it.

        On an idle transmitter it starts at ``now`` and leaves the queue
        at once; otherwise it starts as the packet before it departs.
        Departures strictly increase, so a packet that departs before
        the horizon has no parked packet ahead of it.
        """
        start = self.busy_until
        if start < now:
            start = now
            self.queue.poll()
        else:
            self._starts.append(start)
        size = packet.size
        tx_time = self._tx_times.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.rate_bps
            self._tx_times[size] = tx_time
        departs = self.busy_until = start + tx_time
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.on_link_timed(self, packet, departs)
        if departs < self.horizon:
            # _deliver, inlined: this is the path of nearly every packet.
            self.transmitted_packets += 1
            self.transmitted_bytes += size
            if sanitizer is not None:
                sanitizer.on_link_deliver(self, packet, departs)
            self.routes[packet.flow_id](packet, departs)
        else:
            self._parked.append((departs, packet))

    def _deliver(self, packet: Packet, departs: float) -> None:
        """Hand a parked ``packet`` to its flow's route with its
        departure time (:meth:`_transmit` inlines this)."""
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.size
        if self._sanitizer is not None:
            self._sanitizer.on_link_deliver(self, packet, departs)
        self.routes[packet.flow_id](packet, departs)

    def set_horizon(self, horizon: float) -> None:
        """Deliver ahead of the clock only the packets departing before
        ``horizon``, and deliver the parked ones that now qualify."""
        self.horizon = horizon
        parked = self._parked
        while parked and parked[0][0] < horizon:
            departs, packet = parked.popleft()
            self._deliver(packet, departs)

    # ------------------------------------------------------------------
    # Fault hooks: lift the waiting packets' times, change the link,
    # time them again.
    # ------------------------------------------------------------------

    def _untime(self) -> None:
        """Forget the times of the waiting packets, which a fault at
        ``now`` is about to change. They must all be parked: one
        delivered already would have reached its receiver at a
        departure time that no longer holds."""
        now = self.sim.now
        starts = self._starts
        while starts and starts[0] < now:
            starts.popleft()
            self.queue.poll()
        if not starts:
            return
        parked = self._parked
        if len(parked) < len(starts):
            raise SimulationError(
                f"link changed at t={now!r} after packets departing later "
                "were delivered: set the horizon to the change's time first"
            )
        for _ in starts:
            parked.pop()
        # The first waiting packet was to start as the one in service
        # departs: the transmitter is busy until then.
        self.busy_until = starts[0]
        starts.clear()

    def _retime(self) -> None:
        """Time every waiting packet again, oldest first."""
        if not self.up:
            return
        now = self.sim.now
        for packet in list(self.queue):
            self._transmit(packet, now)

    def set_down(self) -> None:
        """Take the link down (blackout). Idempotent."""
        self._untime()
        self.up = False

    def set_up(self) -> None:
        """Restore a downed link and resume draining the queue."""
        if self.up:
            return
        self.up = True
        self._retime()

    def set_rate(self, rate_bps: float) -> None:
        """Change the link rate; applies from the next serialisation."""
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self._untime()
        self.rate_bps = rate_bps
        self._tx_times.clear()
        self._retime()

    def set_capacity(self, capacity_bytes: int) -> None:
        """Resize the queue's buffer now (see :meth:`Queue.set_capacity`);
        the waiting packets that remain keep their order and times."""
        self._untime()
        self.queue.set_capacity(capacity_bytes, now=self.sim.now)
        self._retime()
