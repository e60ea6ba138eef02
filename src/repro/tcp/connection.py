"""TCP sender and receiver endpoints.

This is the transport substrate of the reproduction: a from-scratch TCP
data-transfer engine with the pieces that matter for congestion-control
measurement —

- SACK scoreboard with RFC 6675-style loss marking and pipe accounting
  (limited transmit emerges naturally from pipe-based sending);
- fast recovery entered once per loss *event* (per window), which is the
  "CWND halving" the paper counts via tcpprobe;
- RFC 6298 RTO with exponential backoff and a Linux-like 200 ms floor;
- delivery-rate sampling (the BBR measurement substrate);
- optional pacing, driven by the CCA's ``pacing_rate``;
- delayed ACKs at the receiver (Linux-like, every second segment with a
  40 ms timer), since the Mathis constant depends on ACKing policy.

Sequence numbers count MSS-sized packets. Flows send either infinite
data (the paper's workload) or a fixed number of packets.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..sim.engine import Event, Simulator, event_pending, event_time
from ..sim.link import Sink
from ..sim.packet import Packet, SackBlock
from ..units import ACK_PACKET_BYTES, DATA_PACKET_BYTES
from .cca.base import CongestionControl
from .rangeset import RangeSet
from .rate_sample import DeliveryRateEstimator
from .rtt import RttEstimator

#: The bus forwarder, called as ``fn(now, kind, cwnd)`` where kind is
#: one of "ack", "loss_event", "rto", "recovery_exit".
CwndForwarder = Callable[[float, str, float], None]


class PacketMeta:
    """Per-in-flight-packet scoreboard state."""

    __slots__ = (
        "sent_time",
        "first_sent_time",
        "delivered",
        "delivered_time",
        "is_app_limited",
        "retransmitted",
        "retx_pending",
        "in_retrans_out",
        "sacked",
        "lost",
    )

    def __init__(self) -> None:
        self.sent_time = 0.0
        self.first_sent_time = 0.0
        self.delivered = 0
        self.delivered_time: Optional[float] = 0.0
        self.is_app_limited = False
        # 'retransmitted' is sticky (Karn's rule: never RTT-sample such a
        # packet); 'in_retrans_out' tracks whether it currently counts in
        # the pipe's retrans_out term; 'retx_pending' means it sits in the
        # retransmission queue.
        self.retransmitted = False
        self.retx_pending = False
        self.in_retrans_out = False
        self.sacked = False
        self.lost = False


class ConnectionStats:
    """Counters a single sender accumulates over its lifetime.

    ``halvings`` and ``rtos`` are the tcpprobe view the results report:
    the fast-recovery entries and RTOs at or after ``count_from``, which
    ``run_experiment`` sets to the warm-up cut.
    """

    __slots__ = (
        "packets_sent",
        "retransmits",
        "loss_recovery_events",
        "rto_events",
        "acks_received",
        "spurious_rtos",
        "count_from",
        "halvings",
        "rtos",
    )

    def __init__(self) -> None:
        self.packets_sent = 0
        self.retransmits = 0
        self.loss_recovery_events = 0
        self.rto_events = 0
        self.acks_received = 0
        self.spurious_rtos = 0
        self.count_from = 0.0
        self.halvings = 0
        self.rtos = 0

    @property
    def congestion_events(self) -> int:
        """Total multiplicative-decrease events (fast recoveries + RTOs).

        This is the event count the paper's "CWND halving rate" measures:
        each entry into recovery reduces the window once, regardless of
        how many packets were dropped in the triggering burst.
        """
        return self.loss_recovery_events + self.rto_events


class TcpSender:
    """The sending side of a TCP connection.

    Parameters
    ----------
    sim:
        The owning simulator.
    flow_id:
        Stamped on every packet; used for drop attribution.
    cca:
        The congestion control algorithm instance (owned by this sender).
    path:
        First element of the forward (data) path; must eventually deliver
        to the paired :class:`TcpReceiver`.
    total_packets:
        ``None`` for an infinite flow (the paper's workload), otherwise
        the flow completes after this many packets are cumulatively ACKed
        and ``completion_listener`` fires.
    """

    DUPTHRESH = 3

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        cca: CongestionControl,
        path: Optional[Sink] = None,
        total_packets: Optional[int] = None,
        mss: int = DATA_PACKET_BYTES,
        rtt_estimator: Optional[RttEstimator] = None,
        loss_marking: str = "rack",
    ) -> None:
        """``loss_marking`` selects the loss-detection rule:

        - ``"rack"`` (default): any hole below a delivered (SACKed)
          packet is marked lost. This is what Linux RACK-TLP converges
          to on a non-reordering path, and it is essential in the
          paper's CoreScale regime where per-flow windows of ~4 packets
          can never produce three duplicate ACKs.
        - ``"dupthresh"``: classic RFC 6675 three-dupACK marking.
        """
        if loss_marking not in ("rack", "dupthresh"):
            raise ValueError("loss_marking must be 'rack' or 'dupthresh'")
        self.sim = sim
        self.flow_id = flow_id
        self.cca = cca
        self.path = path
        self.total_packets = total_packets
        self.mss = mss
        self.loss_marking = loss_marking
        self.rtt = rtt_estimator or RttEstimator()
        self.rate_estimator = DeliveryRateEstimator()
        self.stats = ConnectionStats()

        self.snd_una = 0
        self.snd_nxt = 0
        self.sacked_out = 0
        self.lost_out = 0
        self.retrans_out = 0
        self.in_recovery = False
        self.in_rto_recovery = False
        self.recovery_point = 0
        self.started = False
        self.completed = False
        self._rto_checked = True

        self._meta: dict[int, PacketMeta] = {}
        self._sacked = RangeSet()
        self._lost = RangeSet()
        # SACKed union lost: holes in this set are the only candidates
        # the loss marker still needs to visit.
        self._covered = RangeSet()
        self._high_sacked = 0
        self._retx_heap: List[int] = []
        self._pacing_next = 0.0
        self._send_timer: Optional[Event] = None
        self._rto_deadline: Optional[float] = None
        self._rto_event: Optional[Event] = None

        #: Set only by EventBus.bind_sender; None on an unobserved sender.
        self.forwarder: Optional[CwndForwarder] = None
        self.completion_listener: Optional[Callable[["TcpSender"], None]] = None
        # Runtime sanitizer (None when off): audited after every ACK/RTO.
        self._sanitizer = sim.sanitizer

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------

    @property
    def packets_out(self) -> int:
        """Packets between ``snd_una`` and ``snd_nxt``."""
        return self.snd_nxt - self.snd_una

    @property
    def in_flight(self) -> int:
        """Linux-style pipe estimate (RFC 6675 Pipe)."""
        return self.packets_out - self.sacked_out - self.lost_out + self.retrans_out

    @property
    def delivered_packets(self) -> int:
        """Cumulative delivered packets (includes SACKed)."""
        return self.rate_estimator.delivered

    @property
    def cwnd_packets(self) -> int:
        """Integer congestion window the send loop enforces."""
        return max(1, int(self.cca.cwnd))

    def _has_new_data(self) -> bool:
        return self.total_packets is None or self.snd_nxt < self.total_packets

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, at: Optional[float] = None) -> None:
        """Begin transmitting, now or at absolute time ``at``."""
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        if at is None or at <= self.sim.now:
            self._try_send()
        else:
            self.sim.schedule_at(at, self._try_send)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _next_retransmit(self) -> Optional[int]:
        """Pop the lowest lost sequence still worth retransmitting."""
        while self._retx_heap:
            seq = heapq.heappop(self._retx_heap)
            if seq < self.snd_una:
                continue
            meta = self._meta.get(seq)
            if meta is None or meta.sacked or not meta.lost or not meta.retx_pending:
                continue
            return seq
        return None

    def _try_send(self) -> None:
        if not self.started or self.completed or self.path is None:
            return
        now = self.sim.now
        pacing_rate = self.cca.pacing_rate
        # cwnd and pacing_rate only change inside ACK/loss processing,
        # never while this send loop runs, so both — and the pipe
        # estimate, which grows by exactly one per transmission — are
        # safe to fold into locals for the duration of the loop.
        cwnd_packets = self.cwnd_packets
        total_packets = self.total_packets
        in_flight = (
            self.snd_nxt - self.snd_una - self.sacked_out - self.lost_out
            + self.retrans_out
        )
        while True:
            if in_flight >= cwnd_packets:
                break
            if pacing_rate is not None and now < self._pacing_next:
                self._arm_send_timer(self._pacing_next)
                break
            seq = self._next_retransmit() if self._retx_heap else None
            retransmission = seq is not None
            if seq is None:
                seq = self.snd_nxt
                if total_packets is not None and seq >= total_packets:
                    break
            self._transmit(seq, retransmission)
            in_flight += 1
            if pacing_rate is not None and pacing_rate > 0:
                gap = self.mss * 8.0 / pacing_rate
                self._pacing_next = max(now, self._pacing_next) + gap

    def _arm_send_timer(self, at: float) -> None:
        if self._send_timer is not None and event_pending(self._send_timer):
            if event_time(self._send_timer) <= at:
                return
            self.sim.cancel(self._send_timer)
        self._send_timer = self.sim.schedule_at(at, self._try_send)

    def _transmit(self, seq: int, retransmission: bool) -> None:
        now = self.sim.now
        if retransmission:
            meta = self._meta[seq]
            meta.retransmitted = True
            meta.retx_pending = False
            meta.in_retrans_out = True
            self.retrans_out += 1
            self.stats.retransmits += 1
        else:
            meta = PacketMeta()
            self._meta[seq] = meta
            self.snd_nxt += 1
        # self.in_flight inlined (property chain is hot here).
        in_flight = (
            self.snd_nxt - self.snd_una - self.sacked_out - self.lost_out
            + self.retrans_out
        )
        self.rate_estimator.on_packet_sent(meta, now, in_flight - 1)
        meta.sent_time = now
        self.stats.packets_sent += 1
        packet = Packet(self.flow_id, seq, self.mss)
        packet.sent_time = now
        assert self.path is not None
        self.path.send(packet)
        if self._rto_deadline is None:
            self._set_rto_deadline(now + self.rtt.rto)

    # ------------------------------------------------------------------
    # ACK processing (entry point: reverse path delivers ACKs here)
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Sink interface — the reverse path hands ACKs to the sender."""
        if not packet.is_ack:
            raise ValueError("TcpSender received a non-ACK packet")
        self._on_ack(packet)

    def _on_ack(self, ack: Packet) -> None:
        # This method runs once per received ACK and dominates the whole
        # simulation profile, so the property chains (in_flight,
        # packets_out) and repeated attribute lookups are folded into
        # locals. Every arithmetic expression is kept identical to the
        # straightforward form — results must stay byte-for-byte equal.
        now = self.sim.now
        self.stats.acks_received += 1
        prior_una = self.snd_una
        rate_estimator = self.rate_estimator
        on_delivered = rate_estimator.on_packet_delivered
        meta_map = self._meta
        in_flight = (
            self.snd_nxt - prior_una - self.sacked_out - self.lost_out
            + self.retrans_out
        )
        rs = rate_estimator.start_sample(in_flight)
        rtt_sample: Optional[float] = None
        newly_acked = 0

        # --- cumulative ACK -------------------------------------------
        ack_seq = ack.ack_seq
        if ack_seq > prior_una:
            meta_pop = meta_map.pop
            sacked_out = self.sacked_out
            lost_out = self.lost_out
            retrans_out = self.retrans_out
            for seq in range(prior_una, ack_seq):
                meta = meta_pop(seq, None)
                if meta is None:
                    continue
                if meta.sacked:
                    sacked_out -= 1
                else:
                    on_delivered(rs, meta, now)
                    newly_acked += 1
                    if not meta.retransmitted:
                        rtt_sample = now - meta.sent_time
                if meta.lost:
                    lost_out -= 1
                if meta.in_retrans_out:
                    retrans_out -= 1
            self.sacked_out = sacked_out
            self.lost_out = lost_out
            self.retrans_out = retrans_out
            self.snd_una = ack_seq
            if self._sacked:
                self._sacked.remove_below(ack_seq)
            if self._lost:
                self._lost.remove_below(ack_seq)
            if self._covered:
                self._covered.remove_below(ack_seq)

        # --- SACK blocks ----------------------------------------------
        sack_blocks = ack.sack_blocks
        if sack_blocks:
            meta_get = meta_map.get
            sacked_set = self._sacked
            covered = self._covered
            snd_una = self.snd_una
            snd_nxt = self.snd_nxt
            for lo, hi in sack_blocks:
                if lo < snd_una:
                    lo = snd_una
                if hi > snd_nxt:
                    hi = snd_nxt
                if lo >= hi:
                    continue
                for gap_lo, gap_hi in sacked_set.holes_between(lo, hi):
                    for seq in range(gap_lo, gap_hi):
                        meta = meta_get(seq)
                        if meta is None or meta.sacked:
                            continue
                        meta.sacked = True
                        self.sacked_out += 1
                        newly_acked += 1
                        on_delivered(rs, meta, now)
                        if not meta.retransmitted:
                            rtt_sample = now - meta.sent_time
                        if meta.lost:
                            meta.lost = False
                            self.lost_out -= 1
                        if meta.in_retrans_out:
                            meta.in_retrans_out = False
                            self.retrans_out -= 1
                sacked_set.add(lo, hi)
                covered.add(lo, hi)
                if hi - 1 > self._high_sacked:
                    self._high_sacked = hi - 1

        # --- loss detection -------------------------------------------
        newly_lost = self._mark_lost_from_sack()

        # Spurious-RTO detection: an RTT sample during RTO recovery can
        # only come from a never-retransmitted packet, meaning the
        # original transmission survived and the timeout was premature.
        if self.in_rto_recovery and rtt_sample is not None and not self._rto_checked:
            self._rto_checked = True
            self.stats.spurious_rtos += 1

        # --- recovery transitions -------------------------------------
        if self.in_recovery and self.snd_una >= self.recovery_point:
            self.in_recovery = False
            self.in_rto_recovery = False
            self.rtt.reset_backoff()
            self.cca.on_recovery_exit(self)
            self._notify_cwnd("recovery_exit")
        if newly_lost > 0 and not self.in_recovery:
            self._enter_recovery()

        # --- CCA + RTT updates ----------------------------------------
        if rtt_sample is not None and rtt_sample > 0:
            self.rtt.on_measurement(rtt_sample)
        rs.rtt = rtt_sample
        rs.newly_acked = newly_acked
        rs.newly_lost = newly_lost
        rate_estimator.finish_sample(rs, self.rtt.min_rtt)
        self.cca.on_ack(rs, self)
        if self.forwarder is not None:
            self.forwarder(now, "ack", self.cca.cwnd)
        if self._sanitizer is not None:
            self._sanitizer.check_sender(self)

        # --- completion / RTO rearm -----------------------------------
        if self.total_packets is not None and self.snd_una >= self.total_packets:
            if not self.completed:
                self.completed = True
                self._clear_rto_deadline()
                if self.completion_listener is not None:
                    self.completion_listener(self)
            return
        if self.snd_nxt > self.snd_una:
            # RFC 6298 §5.3: restart the timer only when new data is
            # acknowledged — dupACKs must not keep pushing it out, or a
            # lost retransmission would never time out.
            if ack_seq > prior_una or self._rto_deadline is None:
                self._set_rto_deadline(now + self.rtt.rto)
        else:
            self._clear_rto_deadline()
        self._try_send()

    def _enter_recovery(self) -> None:
        self.in_recovery = True
        self.in_rto_recovery = False
        self.recovery_point = self.snd_nxt
        stats = self.stats
        stats.loss_recovery_events += 1
        if self.sim.now >= stats.count_from:
            stats.halvings += 1
        self.cca.on_loss_event(self)
        self._notify_cwnd("loss_event")

    def _mark_lost_from_sack(self) -> int:
        """RFC 6675 IsLost marking.

        A sequence is lost once >= DupThresh SACKed packets sit above
        it; equivalently, everything below the DupThresh-th-highest
        SACKed sequence that is neither SACKed nor already marked. The
        ``_covered`` set (SACKed union lost) makes this incremental:
        each hole is walked exactly once over the connection's lifetime.
        """
        if not self._sacked:
            return 0
        if self.loss_marking == "rack":
            threshold: Optional[int] = self._sacked.max_value()
        else:
            threshold = self._sacked.nth_from_top(self.DUPTHRESH)
        if threshold is None or threshold <= self.snd_una:
            return 0
        newly = 0
        for hole_lo, hole_hi in self._covered.holes_between(self.snd_una, threshold):
            for seq in range(hole_lo, hole_hi):
                meta = self._meta.get(seq)
                if meta is None or meta.sacked or meta.lost or meta.retransmitted:
                    continue
                meta.lost = True
                meta.retx_pending = True
                self.lost_out += 1
                newly += 1
                heapq.heappush(self._retx_heap, seq)
            self._covered.add(hole_lo, hole_hi)
            self._lost.add(hole_lo, hole_hi)
        return newly

    # ------------------------------------------------------------------
    # RTO machinery (lazy re-arm to avoid heap churn)
    # ------------------------------------------------------------------

    def _set_rto_deadline(self, deadline: float) -> None:
        self._rto_deadline = deadline
        if self._rto_event is None or not event_pending(self._rto_event):
            self._rto_event = self.sim.schedule_at(deadline, self._on_rto_timer)

    def _clear_rto_deadline(self) -> None:
        self._rto_deadline = None

    def _on_rto_timer(self) -> None:
        self._rto_event = None
        if self._rto_deadline is None:
            return
        now = self.sim.now
        if now < self._rto_deadline - 1e-12:
            self._rto_event = self.sim.schedule_at(self._rto_deadline, self._on_rto_timer)
            return
        if self.packets_out == 0 or self.completed:
            self._rto_deadline = None
            return
        self._fire_rto()

    def _fire_rto(self) -> None:
        now = self.sim.now
        stats = self.stats
        stats.rto_events += 1
        if now >= stats.count_from:
            stats.rtos += 1
        self.rtt.on_timeout()
        # Let the CCA react while in_flight still reflects the pre-RTO
        # pipe (RFC 5681 sets ssthresh from FlightSize).
        self.cca.on_rto(self)
        # Mark every outstanding, un-SACKed packet lost and rebuild the
        # retransmission queue (RFC 6582 loss recovery, keeping SACK info).
        self._retx_heap = []
        self.retrans_out = 0
        self.lost_out = 0
        for seq in range(self.snd_una, self.snd_nxt):
            meta = self._meta.get(seq)
            if meta is None:
                continue
            meta.in_retrans_out = False
            if meta.sacked:
                meta.lost = False
                continue
            meta.lost = True
            meta.retx_pending = True
            self.lost_out += 1
            heapq.heappush(self._retx_heap, seq)
        if self.snd_nxt > self.snd_una:
            self._lost.add(self.snd_una, self.snd_nxt)
            self._covered.add(self.snd_una, self.snd_nxt)
        self.in_recovery = True
        self.in_rto_recovery = True
        self._rto_checked = False
        self.recovery_point = self.snd_nxt
        self._notify_cwnd("rto")
        if self._sanitizer is not None:
            self._sanitizer.check_sender(self)
        self._set_rto_deadline(now + self.rtt.rto)
        self._try_send()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _notify_cwnd(self, kind: str) -> None:
        """Forward a rare-kind cwnd event to the bus, if one is bound.

        The per-ACK "ack" notification is inlined in :meth:`_on_ack`.
        """
        if self.forwarder is not None:
            self.forwarder(self.sim.now, kind, self.cca.cwnd)


class TcpReceiver:
    """The receiving side: reassembly, SACK generation, delayed ACKs."""

    #: ACK at least every second full-sized segment (RFC 5681).
    ACK_QUOTA = 2

    __slots__ = (
        "sim",
        "flow_id",
        "reverse_path",
        "delayed_ack",
        "delack_timeout",
        "max_sack_blocks",
        "rcv_nxt",
        "received_packets",
        "duplicate_packets",
        "acks_sent",
        "_ooo",
        "_unacked_segments",
        "_delack_event",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        reverse_path: Optional[Sink] = None,
        delayed_ack: bool = True,
        delack_timeout: float = 0.040,
        max_sack_blocks: int = 3,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.reverse_path = reverse_path
        self.delayed_ack = delayed_ack
        self.delack_timeout = delack_timeout
        self.max_sack_blocks = max_sack_blocks
        self.rcv_nxt = 0
        self.received_packets = 0
        self.duplicate_packets = 0
        self.acks_sent = 0
        self._ooo = RangeSet()
        self._unacked_segments = 0
        self._delack_event: Optional[Event] = None

    def send(self, packet: Packet) -> None:
        """Sink interface — the forward path delivers data here."""
        if packet.is_ack:
            raise ValueError("TcpReceiver received an ACK packet")
        self.received_packets += 1
        seq = packet.seq
        rcv_nxt = self.rcv_nxt
        if seq == rcv_nxt and not self._ooo:
            # In-order fast path (the overwhelmingly common case): the
            # arrival extends the contiguous prefix by exactly one and
            # there is no reordering state to reconcile, so the RangeSet
            # round-trip below (add_point / contiguous_end_from /
            # remove_below) collapses to a single increment. Behaviour
            # is identical to the general path for this case.
            self.rcv_nxt = rcv_nxt + 1
            if not self.delayed_ack:
                self._send_ack(triggering_seq=seq)
                return
            self._unacked_segments += 1
            if self._unacked_segments >= self.ACK_QUOTA:
                self._send_ack(triggering_seq=seq)
            else:
                self._arm_delack()
            return
        if seq < rcv_nxt or seq in self._ooo:
            self.duplicate_packets += 1
            self._send_ack(triggering_seq=seq)
            return
        self._ooo.add_point(seq)
        filled_hole = False
        new_nxt = self._ooo.contiguous_end_from(self.rcv_nxt)
        if new_nxt > self.rcv_nxt:
            # Advanced the cumulative point; an advance of more than one
            # packet means this arrival filled a hole in front of buffered
            # out-of-order data -> ACK immediately (RFC 5681 §4.2).
            filled_hole = new_nxt - self.rcv_nxt > 1
            self.rcv_nxt = new_nxt
            self._ooo.remove_below(new_nxt)
        out_of_order = seq >= self.rcv_nxt  # still above the cumulative point
        if out_of_order or filled_hole or self._ooo or not self.delayed_ack:
            self._send_ack(triggering_seq=seq)
            return
        self._unacked_segments += 1
        if self._unacked_segments >= self.ACK_QUOTA:
            self._send_ack(triggering_seq=seq)
        else:
            self._arm_delack()

    def _arm_delack(self) -> None:
        if self._delack_event is not None and event_pending(self._delack_event):
            return
        self._delack_event = self.sim.schedule(self.delack_timeout, self._on_delack)

    def _on_delack(self) -> None:
        self._delack_event = None
        if self._unacked_segments > 0:
            self._send_ack(triggering_seq=None)

    def _sack_blocks(self, triggering_seq: Optional[int]) -> Tuple[SackBlock, ...]:
        if not self._ooo:
            return ()
        ranges = self._ooo.ranges()
        blocks: List[SackBlock] = []
        if triggering_seq is not None:
            for r in ranges:
                if r[0] <= triggering_seq < r[1]:
                    blocks.append(r)
                    break
        for r in ranges:
            if len(blocks) >= self.max_sack_blocks:
                break
            if r not in blocks:
                blocks.append(r)
        return tuple(blocks)

    def _send_ack(self, triggering_seq: Optional[int]) -> None:
        if self.reverse_path is None:
            raise RuntimeError("TcpReceiver has no reverse path attached")
        self._unacked_segments = 0
        if self._delack_event is not None and event_pending(self._delack_event):
            self.sim.cancel(self._delack_event)
            self._delack_event = None
        ack = Packet(
            self.flow_id,
            size=ACK_PACKET_BYTES,
            is_ack=True,
            ack_seq=self.rcv_nxt,
            sack_blocks=self._sack_blocks(triggering_seq) if self._ooo else (),
        )
        self.acks_sent += 1
        self.reverse_path.send(ack)
