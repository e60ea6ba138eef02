"""Bottleneck queue disciplines.

The paper's testbed uses a drop-tail queue at the BESS software switch
sized to ~1 BDP; :class:`DropTailQueue` is the faithful equivalent.
:class:`REDQueue` is provided as an ablation extension (the paper fixes
drop-tail; DESIGN.md lists queue discipline as an ablation axis).

Queues are passive containers: the owning :class:`repro.sim.link.Link`
drives enqueue/dequeue. Each queue is also the paper's drop logger: it
counts arrivals and drops per flow from a measurement cut onward and
can keep the drop timestamps. A queue drops a packet in two places:
at arrival, in :meth:`Queue.offer`, the one admission path every
discipline shares (the arrival does not fit, or the discipline's
early-drop hook refuses it), and when :meth:`Queue.set_capacity`
shrinks the buffer below the backlog. Dequeue never drops. Event-bus
observers attach through a single forwarder slot filled by
:meth:`repro.obs.bus.EventBus.bind_queue`.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..lint.sanitizer import SimSanitizer

#: The bus forwarder, called as ``fn(now, kind, packet)`` with kind
#: ``"enqueue"`` or ``"drop"``.
QueueForwarder = Callable[[float, str, Packet], None]
#: A discipline's early-drop test, called as ``fn(queue, now, packet)``.
EarlyDrop = Callable[[Any, float, Packet], bool]


class Queue:
    """A FIFO byte-capacity queue, the base of every discipline.

    :meth:`offer` is the only admission path. An arrival that does not
    fit in the remaining capacity is dropped; one that fits is dropped
    only if the discipline's :attr:`early_drop` hook says so. Drop-tail
    leaves that hook ``None``.

    Besides the lifetime ``enqueued_packets``/``dropped_packets`` totals,
    a queue attributes every arrival and drop at or after ``count_from``
    to its flow (``arrivals_by_flow``/``drops_by_flow``) and, while
    ``record_drop_times`` is set, logs each counted drop's time in
    ``drop_times``. ``run_experiment`` sets ``count_from`` to the
    scenario's warm-up, so an event due exactly at the cut is counted.
    """

    __slots__ = (
        "capacity_bytes",
        "occupancy_bytes",
        "enqueued_packets",
        "dropped_packets",
        "count_from",
        "record_drop_times",
        "arrivals_by_flow",
        "drops_by_flow",
        "drop_times",
        "forwarder",
        "early_drop",
        "_items",
        "sanitizer",
    )

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.occupancy_bytes = 0
        self.enqueued_packets = 0
        self.dropped_packets = 0
        self.count_from = 0.0
        self.record_drop_times = True
        self.arrivals_by_flow: defaultdict[int, int] = defaultdict(int)
        self.drops_by_flow: defaultdict[int, int] = defaultdict(int)
        self.drop_times: list[float] = []
        #: Set only by EventBus.bind_queue; None on an unobserved queue.
        self.forwarder: Optional[QueueForwarder] = None
        #: The discipline's test for an arrival that fits, called as
        #: ``fn(queue, now, packet)`` and returning True to drop it; None
        #: (the drop-tail default) admits every arrival that fits. A
        #: plain function, not a bound method: a queue holding its own
        #: bound method would be a reference cycle.
        self.early_drop: Optional[EarlyDrop] = None
        self._items: deque[Packet] = deque()
        #: Byte-conservation auditor; set by SimSanitizer.watch_queue().
        self.sanitizer: Optional["SimSanitizer"] = None

    def __len__(self) -> int:
        return len(self._items)

    def _count_drop(self, now: float, packet: Packet) -> None:
        """Account one drop; both drop paths (arrival reject and resize
        eviction, the only in-queue drop) go through here."""
        self.dropped_packets += 1
        if now >= self.count_from:
            self.drops_by_flow[packet.flow_id] += 1
            if self.record_drop_times:
                self.drop_times.append(now)
        if self.forwarder is not None:
            self.forwarder(now, "drop", packet)

    def offer(self, now: float, packet: Packet) -> bool:
        """Try to enqueue ``packet`` at time ``now``.

        Returns ``True`` if accepted, ``False`` if dropped: the arrival
        must fit in the remaining capacity, and then pass the
        discipline's :attr:`early_drop` test, if it has one.
        """
        size = packet.size
        occupancy = self.occupancy_bytes
        if occupancy + size <= self.capacity_bytes and (
            self.early_drop is None or not self.early_drop(self, now, packet)
        ):
            self._items.append(packet)
            self.occupancy_bytes = occupancy + size
            self.enqueued_packets += 1
            if self.sanitizer is not None:
                self.sanitizer.on_enqueue(self, packet)
            if now >= self.count_from:
                self.arrivals_by_flow[packet.flow_id] += 1
            if self.forwarder is not None:
                self.forwarder(now, "enqueue", packet)
            return True
        if self.sanitizer is not None:
            self.sanitizer.on_reject(self, packet)
        self._count_drop(now, packet)
        return False

    def poll(self) -> Optional[Packet]:
        """Dequeue the head-of-line packet, or ``None`` if empty.

        Dequeue never drops: the only in-queue drop is resize eviction
        in :meth:`set_capacity`.
        """
        if not self._items:
            return None
        packet = self._items.popleft()
        self.occupancy_bytes -= packet.size
        if self.sanitizer is not None:
            self.sanitizer.on_dequeue(self, packet)
        return packet

    def set_capacity(self, capacity_bytes: int, now: float = 0.0) -> None:
        """Resize the buffer (fault-injection hook).

        Shrinking evicts from the *tail* (newest arrivals first) until the
        backlog fits, with full drop accounting — reconfiguring a real
        switch port buffer discards the overflow the same way. Eviction
        happens before the capacity is updated so the occupancy-within-
        capacity invariant holds at every step.
        """
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        while self._items and self.occupancy_bytes > capacity_bytes:
            packet = self._items.pop()
            self.occupancy_bytes -= packet.size
            if self.sanitizer is not None:
                self.sanitizer.on_queue_drop(self, packet)
            self._count_drop(now, packet)
        self.capacity_bytes = capacity_bytes


class DropTailQueue(Queue):
    """FIFO queue that drops arrivals once the byte capacity is exceeded.

    This is the discipline used for every experiment in the paper; tail
    drops under many competing flows are exactly what produces the bursty
    loss pattern behind Findings 1-3. It is :class:`Queue` with no
    :attr:`~Queue.early_drop` hook.
    """

    __slots__ = ()


class REDQueue(Queue):
    """Random Early Detection (Floyd & Jacobson 1993), gentle variant.

    Provided for the queue-discipline ablation: RED breaks up the
    synchronized burst drops of drop-tail, which is the hypothesised
    mechanism behind the loss-rate/halving-rate divergence at scale.
    """

    #: Drop probability at the upper threshold (Floyd's recommended 0.1).
    MAX_P = 0.1
    #: EWMA weight of the average queue size (Floyd's recommended 0.002).
    WEIGHT = 0.002

    def __init__(
        self,
        capacity_bytes: int,
        rng: random.Random,
        min_thresh_bytes: Optional[int] = None,
        max_thresh_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(capacity_bytes)
        self.min_thresh = min_thresh_bytes if min_thresh_bytes is not None else capacity_bytes // 4
        self.max_thresh = max_thresh_bytes if max_thresh_bytes is not None else capacity_bytes // 2
        if not 0 < self.min_thresh < self.max_thresh <= capacity_bytes:
            raise ValueError("require 0 < min_thresh < max_thresh <= capacity")
        self.avg_bytes = 0.0
        self._count_since_drop = -1
        self._rng = rng
        self.early_drop = REDQueue._early_drop

    def set_capacity(self, capacity_bytes: int, now: float = 0.0) -> None:
        """Resize, rescaling both RED thresholds proportionally."""
        ratio = capacity_bytes / self.capacity_bytes
        super().set_capacity(capacity_bytes, now)
        self.min_thresh = max(1, int(self.min_thresh * ratio))
        self.max_thresh = min(
            capacity_bytes, max(self.min_thresh + 1, int(self.max_thresh * ratio))
        )

    def _early_drop(self, now: float, packet: Packet) -> bool:
        """RED's drop test for an arrival that fits in the buffer; True
        drops it.

        The average updates only for such an arrival: one refused for
        want of space never reaches this test.
        """
        self.avg_bytes += self.WEIGHT * (self.occupancy_bytes - self.avg_bytes)
        if self.avg_bytes < self.min_thresh:
            self._count_since_drop = -1
            return False
        if self.avg_bytes >= 2 * self.max_thresh:
            self._count_since_drop = 0
            return True
        # Gentle RED: probability ramps from 0..MAX_P over [min, max), and
        # from MAX_P..1 over [max, 2*max).
        if self.avg_bytes < self.max_thresh:
            fraction = (self.avg_bytes - self.min_thresh) / (self.max_thresh - self.min_thresh)
            p_base = fraction * self.MAX_P
        else:
            fraction = (self.avg_bytes - self.max_thresh) / self.max_thresh
            p_base = self.MAX_P + fraction * (1.0 - self.MAX_P)
        self._count_since_drop += 1
        denominator = max(1e-9, 1.0 - self._count_since_drop * p_base)
        p_actual = min(1.0, p_base / denominator)
        if self._rng.random() < p_actual:
            self._count_since_drop = 0
            return True
        return False
