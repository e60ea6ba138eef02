"""Multi-subscriber event bus for simulation observability.

Run *results* never depend on the bus: senders and queues keep their
own counters (``TcpSender.stats``, the queue's per-flow arrival/drop
counters), and a bare ``run_experiment`` builds no bus at all. The bus
exists for extra observers — trace recorders, the stall watchdog,
ad-hoc samplers — and any number of them can watch the same component.

Each sender and queue has one forwarder slot. :meth:`EventBus.bind_sender`
and :meth:`EventBus.bind_queue` are the only code that fills it, and a
component can be bound once. The forwarder receives every event kind
the component emits (including the per-ACK ``"ack"`` cwnd kind) and fans
it out to the subscriber list it captured by identity, so a
subscription made after the bind still takes effect.

Topics and payloads (every subscriber receives ``fn(now, *payload)``):

========  ==========================================  =================
topic     payload after ``now``                       source
========  ==========================================  =================
cwnd      ``flow_id, kind, cwnd``                     :meth:`bind_sender`
enqueue   ``packet``                                  :meth:`bind_queue`
drop      ``packet``                                  :meth:`bind_queue`
fault     ``description`` (injector audit trail)      :meth:`publish`
========  ==========================================  =================

A ``cwnd`` event's ``kind`` is ``"ack"``, ``"loss_event"`` (a
fast-recovery entry), ``"rto"`` or ``"recovery_exit"``; observers that
want one flow or one kind filter on the payload.

Design notes
------------
- **Zero cost when unbound.** An unbound sender or queue pays one
  ``is None`` test per event.
- **Ordering.** Subscribers fire in subscription order — deterministic,
  and part of the run's reproducibility contract.
- Observers must not mutate simulation state; the bus is a read-only
  tap and byte-identical results with and without subscribers attached
  is an invariant the CI obs-smoke job enforces.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

#: The closed set of event topics.
TOPICS: Tuple[str, ...] = ("cwnd", "enqueue", "drop", "fault")

#: A bus subscriber: called as ``fn(now, *payload)`` (see module table).
Subscriber = Callable[..., None]


class _SenderLike(Protocol):
    """What :meth:`EventBus.bind_sender` needs from a sender."""

    flow_id: int
    forwarder: Optional[Callable[[float, str, float], None]]


class _QueueLike(Protocol):
    """What :meth:`EventBus.bind_queue` needs from a queue."""

    forwarder: Optional[Callable[[float, str, Any], None]]


class EventBus:
    """Typed-topic publish/subscribe hub for one simulation run."""

    def __init__(self) -> None:
        # One list per topic, made up front and captured by identity
        # in forwarders, so subscribing after a bind still takes effect.
        self._subs: Dict[str, List[Subscriber]] = {topic: [] for topic in TOPICS}

    def _list(self, topic: str) -> List[Subscriber]:
        subs = self._subs.get(topic)
        if subs is None:
            known = ", ".join(TOPICS)
            raise ValueError(f"unknown topic {topic!r}; known topics: {known}")
        return subs

    def subscribe(self, topic: str, fn: Subscriber) -> Subscriber:
        """Append ``fn`` to a topic's ordered subscriber list; returns ``fn``."""
        self._list(topic).append(fn)
        return fn

    def publish(self, topic: str, now: float, *payload: Any) -> None:
        """Deliver an event to a topic's subscribers.

        Sources without a forwarder slot (the fault injector) publish
        here directly; sender/queue events go through the forwarders
        installed by :meth:`bind_sender` / :meth:`bind_queue`.
        """
        for fn in self._list(topic):
            fn(now, *payload)

    def bind_sender(self, sender: _SenderLike) -> None:
        """Forward one sender's cwnd events onto ``cwnd``.

        Fills the sender's forwarder slot; raises ``RuntimeError`` if
        the sender is already bound.
        """
        if sender.forwarder is not None:
            raise RuntimeError(f"sender {sender.flow_id} is already bound to a bus")
        fid = sender.flow_id
        cwnd_subs = self._subs["cwnd"]

        def forward(now: float, kind: str, cwnd: float) -> None:
            for fn in cwnd_subs:
                fn(now, fid, kind, cwnd)

        sender.forwarder = forward

    def bind_queue(self, queue: _QueueLike) -> None:
        """Forward a queue's arrivals/drops onto ``enqueue``/``drop``.

        Fills the queue's forwarder slot; raises ``RuntimeError`` if the
        queue is already bound.
        """
        if queue.forwarder is not None:
            raise RuntimeError("queue is already bound to a bus")
        enqueue_subs = self._subs["enqueue"]
        drop_subs = self._subs["drop"]

        def forward(now: float, kind: str, packet: Any) -> None:
            for fn in enqueue_subs if kind == "enqueue" else drop_subs:
                fn(now, packet)

        queue.forwarder = forward
