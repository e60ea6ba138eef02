"""Multi-subscriber event bus for simulation observability.

Run *results* never depend on the bus: senders and queues keep their
own counters (``TcpSender.stats``, the queue's per-flow arrival/drop
counters), and a bare ``run_experiment`` builds no bus at all. The bus
exists for extra observers — trace recorders, cwnd probes, ad-hoc
samplers — and any number of them can watch the same component.

Each sender and queue has one forwarder slot. :meth:`EventBus.bind_sender`
and :meth:`EventBus.bind_queue` are the only code that fills it, and a
component can be bound once. The forwarder receives every event kind
the component emits (including the per-ACK ``"ack"`` cwnd kind) and fans
it out to the subscriber lists it captured by identity, so a
subscription made after the bind still takes effect.

Topics and payloads (every subscriber receives ``fn(now, *payload)``):

========  ==========================================  =================
topic     payload after ``now``                       source
========  ==========================================  =================
cwnd      ``flow_id, kind, cwnd``                     :meth:`bind_sender`
loss      ``flow_id, cwnd`` (fast-recovery entries)   :meth:`bind_sender`
rto       ``flow_id, cwnd`` (retransmission timeouts) :meth:`bind_sender`
enqueue   ``packet``                                  :meth:`bind_queue`
drop      ``packet``                                  :meth:`bind_queue`
fault     ``description`` (injector audit trail)      :meth:`publish`
========  ==========================================  =================

Design notes
------------
- **Zero cost when unbound.** An unbound sender or queue pays one
  ``is None`` test per event.
- **Per-flow subscriptions.** ``subscribe(topic, fn, flow=fid)``
  delivers only that flow's events. At 5000-flow CoreScale this keeps
  per-flow observers O(1) per event instead of O(flows) filtering.
- **Ordering.** Subscribers fire in subscription order, wildcard
  (``flow=None``) subscribers before per-flow ones — deterministic, and
  part of the run's reproducibility contract.
- Observers must not mutate simulation state; the bus is a read-only
  tap and byte-identical results with and without subscribers attached
  is an invariant the CI obs-smoke job enforces.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

#: The closed set of event topics.
TOPICS: Tuple[str, ...] = ("cwnd", "loss", "rto", "enqueue", "drop", "fault")

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
        # Keyed by (topic, flow): flow=None is the wildcard list. Lists
        # are created once and captured by identity in forwarders, so
        # subscribing after a component is bound still takes effect.
        self._subs: Dict[Tuple[str, Optional[int]], List[Subscriber]] = {}

    def _list(self, topic: str, flow: Optional[int] = None) -> List[Subscriber]:
        if topic not in TOPICS:
            known = ", ".join(TOPICS)
            raise ValueError(f"unknown topic {topic!r}; known topics: {known}")
        return self._subs.setdefault((topic, flow), [])

    def subscribe(
        self, topic: str, fn: Subscriber, flow: Optional[int] = None
    ) -> Subscriber:
        """Append ``fn`` to a topic's ordered subscriber list.

        ``flow`` restricts delivery to one flow's events (topics that
        carry a flow id); ``None`` subscribes to every flow. Returns
        ``fn``.
        """
        self._list(topic, flow).append(fn)
        return fn

    def publish(self, topic: str, now: float, *payload: Any) -> None:
        """Deliver an event to a topic's wildcard subscribers.

        Sources without a flow identity (the fault injector) publish
        here directly; sender/queue events go through the forwarders
        installed by :meth:`bind_sender` / :meth:`bind_queue`.
        """
        for fn in self._list(topic):
            fn(now, *payload)

    def bind_sender(self, sender: _SenderLike) -> None:
        """Forward one sender's cwnd events onto ``cwnd``/``loss``/``rto``.

        Fills the sender's forwarder slot; raises ``RuntimeError`` if
        the sender is already bound.
        """
        if sender.forwarder is not None:
            raise RuntimeError(f"sender {sender.flow_id} is already bound to a bus")
        fid = sender.flow_id
        cwnd_all = self._list("cwnd")
        cwnd_one = self._list("cwnd", fid)
        loss_all = self._list("loss")
        loss_one = self._list("loss", fid)
        rto_all = self._list("rto")
        rto_one = self._list("rto", fid)

        def forward(now: float, kind: str, cwnd: float) -> None:
            for fn in cwnd_all:
                fn(now, fid, kind, cwnd)
            for fn in cwnd_one:
                fn(now, fid, kind, cwnd)
            if kind == "loss_event":
                for fn in loss_all:
                    fn(now, fid, cwnd)
                for fn in loss_one:
                    fn(now, fid, cwnd)
            elif kind == "rto":
                for fn in rto_all:
                    fn(now, fid, cwnd)
                for fn in rto_one:
                    fn(now, fid, cwnd)

        sender.forwarder = forward

    def bind_queue(self, queue: _QueueLike) -> None:
        """Forward a queue's arrivals/drops onto ``enqueue``/``drop``.

        Fills the queue's forwarder slot; raises ``RuntimeError`` if the
        queue is already bound.
        """
        if queue.forwarder is not None:
            raise RuntimeError("queue is already bound to a bus")
        enqueue_subs = self._list("enqueue")
        drop_subs = self._list("drop")

        def forward(now: float, kind: str, packet: Any) -> None:
            for fn in enqueue_subs if kind == "enqueue" else drop_subs:
                fn(now, packet)

        queue.forwarder = forward
