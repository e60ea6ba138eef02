"""Runtime simulation sanitizer — the ASan/TSan analogue for the simulator.

Opt-in invariant checking for a running simulation. When enabled (either
``Simulator(sanitize=True)`` or the ``REPRO_SANITIZE=1`` environment
variable), a single :class:`SimSanitizer` instance attaches to the
:class:`~repro.sim.engine.Simulator` and the components constructed
around it hook their mutation points into it:

- **engine** — virtual-clock monotonicity, no event executed or
  scheduled before ``now``, no NaN event times;
- **queues** — byte conservation: every byte accepted by ``offer`` is
  accounted for by a dequeue, an in-queue drop (resize eviction by
  ``set_capacity``, the only one), or current occupancy; occupancy stays
  within ``[0, capacity]``;
- **links** — a packet's departure is no earlier than its admission
  plus its serialisation time; deliveries strictly increase in
  departure time, never precede the clock, and stay before the link's
  horizon (the link's queue is audited as above);
- **TCP senders** — ``cwnd >= 1`` MSS after every CCA decision,
  scoreboard counters non-negative, ``snd_una <= snd_nxt``, one
  scoreboard entry per sequence in ``[snd_una, snd_nxt)``, and the
  SACK scoreboard (one :class:`~repro.tcp.rangeset.RangeSet`)
  structurally consistent, holding exactly ``sacked_out`` sequences,
  all within ``[snd_una, snd_nxt)``; every lost packet lies below the
  loss-scan watermark (``lost_out <= max(0, _lost_scan - snd_una)``);
  a set RTO timer handle refers to a pending event.

Failures raise :class:`SanitizerError` immediately (fail-fast) with a
diagnostic naming the offending component, the flow where applicable,
and the simulated time — a silently-wrong Mathis fit becomes a loud
crash at the first corrupt event instead.

The checks are O(1) per queue operation and O(fragments) per ACK, so a
sanitized run stays within ~2x of baseline wall time (enforced by the
tier-1 acceptance bar; see README "Static analysis & sanitizer").
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..sim.engine import Simulator
    from ..sim.link import Link
    from ..sim.packet import Packet
    from ..sim.queue import Queue
    from ..tcp.connection import TcpSender

#: Slack for float comparisons on the virtual clock. The engine never
#: produces a regressing clock by construction; this only guards against
#: heap corruption and NaN poisoning, so a tiny epsilon is safe.
_CLOCK_SLACK = 1e-9


def sanitize_enabled_from_env() -> bool:
    """True when ``REPRO_SANITIZE`` requests a sanitized run."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
        "", "0", "false", "no", "off",
    )


class SanitizerError(AssertionError):
    """A simulation invariant was violated.

    Subclasses :class:`AssertionError` so test harnesses and invariant-
    checking idioms treat it like a failed assert, while remaining
    catchable specifically.
    """


class _QueueAccount:
    """Per-queue byte ledger: in = out + dropped-in-queue + occupancy."""

    __slots__ = ("bytes_in", "bytes_out", "bytes_dropped")

    def __init__(self) -> None:
        self.bytes_in = 0
        self.bytes_out = 0
        self.bytes_dropped = 0


class SimSanitizer:
    """Invariant checker attached to one :class:`Simulator`.

    Components discover the active sanitizer through
    ``sim.sanitizer`` (``None`` when sanitizing is off) and call the
    ``on_*``/``check_*`` hooks at their mutation points. All hooks
    raise :class:`SanitizerError` on violation and return nothing.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.checks_performed = 0
        self._queues: Dict[int, _QueueAccount] = {}
        #: Each link's latest delivered departure time, by ``id(link)``.
        self._deliveries: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------

    def _fail(self, component: str, message: str, flow_id: Optional[int] = None) -> None:
        flow = f" flow={flow_id}" if flow_id is not None else ""
        raise SanitizerError(
            f"[repro-sanitize] t={self.sim.now:.9f}{flow} {component}: {message}"
        )

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def on_schedule(self, time: float) -> None:
        """A new event was pushed for absolute ``time``."""
        self.checks_performed += 1
        if math.isnan(time):
            self._fail("engine", "event scheduled at NaN time")
        if time + _CLOCK_SLACK < self.sim.now:
            self._fail(
                "engine",
                f"event scheduled in the past (at={time!r}, now={self.sim.now!r})",
            )

    def on_execute(self, time: float) -> None:
        """The engine is about to advance the clock to ``time``."""
        self.checks_performed += 1
        if math.isnan(time):
            self._fail("engine", "event fires at NaN time")
        if time + _CLOCK_SLACK < self.sim.now:
            self._fail(
                "engine",
                f"clock regression: executing event at {time!r} with now={self.sim.now!r}",
            )

    # ------------------------------------------------------------------
    # Queue hooks (byte conservation)
    # ------------------------------------------------------------------

    def watch_queue(self, queue: "Queue") -> None:
        """Start auditing ``queue``; idempotent."""
        if id(queue) not in self._queues:
            self._queues[id(queue)] = _QueueAccount()
            queue.sanitizer = self

    def _account(self, queue: "Queue") -> _QueueAccount:
        account = self._queues.get(id(queue))
        if account is None:  # queue attached without watch_queue()
            account = _QueueAccount()
            self._queues[id(queue)] = account
        return account

    def _check_queue(self, queue: "Queue", account: _QueueAccount) -> None:
        self.checks_performed += 1
        occupancy = queue.occupancy_bytes
        expected = account.bytes_in - account.bytes_out - account.bytes_dropped
        if occupancy != expected:
            self._fail(
                type(queue).__name__,
                "byte conservation violated: "
                f"occupancy={occupancy} but in-out-dropped="
                f"{account.bytes_in}-{account.bytes_out}-{account.bytes_dropped}"
                f"={expected}",
            )
        if occupancy < 0:
            self._fail(type(queue).__name__, f"negative occupancy {occupancy}")
        if occupancy > queue.capacity_bytes:
            self._fail(
                type(queue).__name__,
                f"occupancy {occupancy} exceeds capacity {queue.capacity_bytes}",
            )

    def on_enqueue(self, queue: "Queue", packet: "Packet") -> None:
        account = self._account(queue)
        account.bytes_in += packet.size
        self._check_queue(queue, account)

    def on_dequeue(self, queue: "Queue", packet: "Packet") -> None:
        account = self._account(queue)
        account.bytes_out += packet.size
        self._check_queue(queue, account)

    def on_queue_drop(self, queue: "Queue", packet: "Packet") -> None:
        """A packet already *inside* the queue was dropped; resize eviction
        by ``Queue.set_capacity`` is the only such drop."""
        account = self._account(queue)
        account.bytes_dropped += packet.size
        self._check_queue(queue, account)

    def on_reject(self, queue: "Queue", packet: "Packet") -> None:
        """An arrival was refused admission; occupancy must be unchanged."""
        self._check_queue(queue, self._account(queue))

    # ------------------------------------------------------------------
    # Link hooks
    # ------------------------------------------------------------------

    def on_link_timed(self, link: "Link", packet: "Packet", departs: float) -> None:
        """``link`` gave ``packet`` the departure time ``departs``: no
        earlier than now plus the packet's serialisation time."""
        self.checks_performed += 1
        earliest = self.sim.now + packet.size * 8.0 / link.rate_bps
        if departs < earliest:
            self._fail(
                "Link",
                f"departure {departs!r} before now + serialisation = {earliest!r}",
                flow_id=packet.flow_id,
            )

    def on_link_deliver(self, link: "Link", packet: "Packet", departs: float) -> None:
        """``link`` hands ``packet`` on with departure ``departs``:
        before the horizon, not before the clock, and strictly after the
        link's previous delivery."""
        self.checks_performed += 1
        if not departs < link.horizon:
            self._fail(
                "Link",
                f"delivery at {departs!r}, at or past the horizon {link.horizon!r}",
                flow_id=packet.flow_id,
            )
        last = self._deliveries.get(id(link), -math.inf)
        if not last < departs or departs < self.sim.now:
            self._fail(
                "Link",
                f"delivery at {departs!r} after one at {last!r}: departures "
                "must strictly increase and not precede the clock",
                flow_id=packet.flow_id,
            )
        self._deliveries[id(link)] = departs

    # ------------------------------------------------------------------
    # TCP sender hooks
    # ------------------------------------------------------------------

    def check_sender(self, sender: "TcpSender") -> None:
        """Full scoreboard audit after an ACK or RTO was processed."""
        self.checks_performed += 1
        flow = sender.flow_id
        cwnd = sender.cca.cwnd
        if math.isnan(cwnd) or cwnd < 1.0 - _CLOCK_SLACK:
            self._fail(
                "TcpSender",
                f"cwnd {cwnd!r} below 1 MSS after {type(sender.cca).__name__} decision",
                flow_id=flow,
            )
        if sender.snd_una > sender.snd_nxt:
            self._fail(
                "TcpSender",
                f"snd_una {sender.snd_una} ahead of snd_nxt {sender.snd_nxt}",
                flow_id=flow,
            )
        # The scoreboard is a window over [snd_una, snd_nxt): entry i
        # belongs to sequence snd_una + i, so a stray or missing entry
        # shifts every later sequence's metadata.
        if len(sender._meta) != sender.snd_nxt - sender.snd_una:
            self._fail(
                "TcpSender",
                f"scoreboard holds {len(sender._meta)} entries for the "
                f"{sender.snd_nxt - sender.snd_una} sequences in "
                f"[snd_una, snd_nxt) = [{sender.snd_una}, {sender.snd_nxt})",
                flow_id=flow,
            )
        if sender.sacked_out < 0 or sender.lost_out < 0 or sender.retrans_out < 0:
            self._fail(
                "TcpSender",
                "negative scoreboard counter: "
                f"sacked_out={sender.sacked_out} lost_out={sender.lost_out} "
                f"retrans_out={sender.retrans_out}",
                flow_id=flow,
            )
        # O(fragments) audits of the SACK scoreboard; iterating the
        # per-packet metadata would cost O(window) per ACK.
        sacked = sender._sacked
        problem = sacked.consistency_error()
        if problem is not None:
            self._fail("TcpSender", f"sacked RangeSet corrupt: {problem}", flow_id=flow)
        sacked_count = len(sacked)
        if sacked_count != sender.sacked_out:
            self._fail(
                "TcpSender",
                f"sacked RangeSet holds {sacked_count} sequences but "
                f"sacked_out={sender.sacked_out}",
                flow_id=flow,
            )
        if sacked and (
            sacked.ranges()[0][0] < sender.snd_una
            or sacked.max_value() >= sender.snd_nxt
        ):
            self._fail(
                "TcpSender",
                f"sacked ranges {sacked.ranges()} outside "
                f"[snd_una, snd_nxt) = [{sender.snd_una}, {sender.snd_nxt})",
                flow_id=flow,
            )
        # The ACK handler re-arms the RTO by storing a deadline whenever
        # the handle is set, so a handle to a fired event would leave
        # the connection with no retransmission timer.
        from ..sim.engine import _TIME, event_pending  # import cycle guard

        rto_event = sender._rto_event
        if rto_event is not None and not event_pending(rto_event):
            self._fail(
                "TcpSender",
                "RTO timer handle is set but its event is no longer pending",
                flow_id=flow,
            )
        # A pending pacing timer is kept, never moved earlier, which is
        # sound only while _pacing_next never drops below its time.
        send_timer = sender._send_timer
        if (
            send_timer is not None
            and event_pending(send_timer)
            and send_timer[_TIME] > sender._pacing_next
        ):
            self._fail(
                "TcpSender",
                f"pacing timer pending at t={send_timer[_TIME]!r} "
                f"after _pacing_next={sender._pacing_next!r}",
                flow_id=flow,
            )
        lost_bound = max(0, sender._lost_scan - sender.snd_una)
        if sender.lost_out > lost_bound:
            self._fail(
                "TcpSender",
                f"lost_out={sender.lost_out} exceeds the {lost_bound} sequences "
                f"below the loss-scan watermark {sender._lost_scan}",
                flow_id=flow,
            )


def maybe_sanitizer(sim: "Simulator", sanitize: Optional[bool]) -> Optional[SimSanitizer]:
    """Resolve the ``sanitize`` constructor argument against the env toggle."""
    if sanitize is None:
        sanitize = sanitize_enabled_from_env()
    return SimSanitizer(sim) if sanitize else None


__all__ = [
    "SanitizerError",
    "SimSanitizer",
    "maybe_sanitizer",
    "sanitize_enabled_from_env",
]
