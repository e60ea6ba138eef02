"""TCP sender and receiver endpoints.

This is the transport substrate of the reproduction: a from-scratch TCP
data-transfer engine with the pieces that matter for congestion-control
measurement —

- SACK scoreboard with RACK-style loss marking and RFC 6675 pipe accounting
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
from bisect import bisect_right
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..sim.engine import _FN, Event, Simulator
from ..sim.link import Sink, TimedSink
from ..sim.packet import Packet, SackBlock
from ..units import ACK_PACKET_BYTES, DATA_PACKET_BYTES
from .cca.base import CongestionControl
from .rangeset import RangeSet
from .rate_sample import DeliveryRateEstimator, PacketMeta, RateSample
from .rtt import RttEstimator

#: The bus forwarder, called as ``fn(now, kind, cwnd)`` where kind is
#: one of "ack", "loss_event", "rto", "recovery_exit".
CwndForwarder = Callable[[float, str, float], None]


class ConnectionStats:
    """Counters a single sender accumulates over its lifetime.

    The results' halvings and RTOs are ``loss_recovery_events`` and
    ``rto_events`` differenced across the measurement window by
    :class:`~repro.instrumentation.flowmon.FlowMonitor`.
    """

    __slots__ = (
        "packets_sent",
        "retransmits",
        "loss_recovery_events",
        "rto_events",
        "acks_received",
        "spurious_rtos",
    )

    def __init__(self) -> None:
        self.packets_sent = 0
        self.retransmits = 0
        self.loss_recovery_events = 0
        self.rto_events = 0
        self.acks_received = 0
        self.spurious_rtos = 0


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
        to the paired :class:`TcpReceiver`. Required: the sender is built
        after its path, so the send loop never tests for a missing one.
    total_packets:
        ``None`` for an infinite flow (the paper's workload), otherwise
        the flow completes after this many packets are cumulatively ACKed
        and ``completion_listener`` fires.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        cca: CongestionControl,
        path: Sink,
        total_packets: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.cca = cca
        self.path = path
        self.total_packets = total_packets
        self.rtt = RttEstimator()
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

        # The scoreboard is a window: entry i belongs to sequence
        # snd_una + i, so it holds exactly snd_nxt - snd_una entries. A
        # new packet's meta is appended and the cumulative ACK pops from
        # the left, so an outstanding packet costs its PacketMeta and
        # one deque slot (~120 B), with no per-sequence key.
        self._meta: Deque[PacketMeta] = deque()
        self._sacked = RangeSet()
        # Loss-scan watermark: every sequence below it has been visited
        # by the loss marker or marked lost by an RTO, so the un-SACKed
        # sequences in [max(snd_una, _lost_scan), threshold) are the
        # only candidates the marker still needs to visit.
        self._lost_scan = 0
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
            meta = self._meta[seq - self.snd_una]
            if meta.sacked or not meta.lost or not meta.retx_pending:
                continue
            return seq
        return None

    def _try_send(self) -> None:
        """Send while the window and the pacing clock allow.

        Runs at the end of every ACK, as the pacing-timer handler and at
        start. Each transmission is folded into the loop rather than
        made a method call of its own.
        """
        if not self.started or self.completed:
            return
        now = self.sim.now
        pacing_rate = self.cca.pacing_rate
        # cwnd and pacing_rate only change inside ACK/loss processing,
        # never while this send loop runs, so both are safe to fold into
        # locals for the duration of the loop, and so is the pipe
        # estimate, which grows by exactly one per transmission.
        cwnd_packets = int(self.cca.cwnd)
        if cwnd_packets < 1:
            cwnd_packets = 1
        total_packets = self.total_packets
        in_flight = (
            self.snd_nxt - self.snd_una - self.sacked_out - self.lost_out
            + self.retrans_out
        )
        meta_map = self._meta
        rate = self.rate_estimator
        stats = self.stats
        path_send = self.path.send
        flow_id = self.flow_id
        while True:
            if in_flight >= cwnd_packets:
                break
            if pacing_rate is not None and now < self._pacing_next:
                # Schedule the pacing timer only when none is pending, as
                # Linux's tcp_pacing_check() does. A pending one is never
                # late: _pacing_next only grows, so the timer was armed
                # for a time at or before the current one. The handle is
                # the engine's event list, whose fn is None once it fired
                # (see the design notes in repro.sim.engine).
                timer = self._send_timer
                if timer is None or timer[_FN] is None:
                    self._send_timer = self.sim.schedule_at(
                        self._pacing_next, self._try_send
                    )
                break
            seq = self._next_retransmit() if self._retx_heap else None
            if seq is None:
                seq = self.snd_nxt
                if total_packets is not None and seq >= total_packets:
                    break
                self.snd_nxt = seq + 1
                # A new packet's state, every scoreboard flag clear.
                meta = PacketMeta.__new__(PacketMeta)
                meta.retransmitted = False
                meta.retx_pending = False
                meta.in_retrans_out = False
                meta.sacked = False
                meta.lost = False
                meta_map.append(meta)
            else:
                meta = meta_map[seq - self.snd_una]
                meta.retransmitted = True
                meta.retx_pending = False
                meta.in_retrans_out = True
                self.retrans_out += 1
                stats.retransmits += 1
            # Delivery-rate send stamps (the draft's SendPacket). in_flight
            # is the pipe this packet joins, without the packet itself; an
            # empty pipe restarts the sampling interval.
            if in_flight == 0:
                rate.first_sent_time = now
                rate.delivered_time = now
            meta.sent_time = now
            meta.first_sent_time = rate.first_sent_time
            meta.delivered = rate.delivered
            meta.delivered_time = rate.delivered_time
            meta.is_app_limited = rate.app_limited_until > 0
            stats.packets_sent += 1
            packet = Packet.__new__(Packet)
            packet.flow_id = flow_id
            packet.seq = seq
            packet.size = DATA_PACKET_BYTES
            packet.is_ack = False
            packet.ack_seq = 0
            packet.sack_blocks = ()
            path_send(packet)
            if self._rto_deadline is None:
                self._set_rto_deadline(now + self.rtt.rto)
            in_flight += 1
            if pacing_rate is not None and pacing_rate > 0:
                gap = DATA_PACKET_BYTES * 8.0 / pacing_rate
                # max(now, _pacing_next) + gap, without the builtin call.
                pacing_next = self._pacing_next
                if pacing_next < now:
                    pacing_next = now
                self._pacing_next = pacing_next + gap

    # ------------------------------------------------------------------
    # ACK processing (entry point: reverse path delivers ACKs here)
    # ------------------------------------------------------------------

    def send(self, ack: Packet) -> None:
        """Sink interface: the reverse path hands ACKs to the sender.

        This is the ACK handler. It runs once per received ACK and
        dominates the whole simulation profile, so the property chains
        (in_flight, packets_out) and repeated attribute lookups are
        folded into locals. Every arithmetic expression is kept
        identical to the straightforward form: results must stay
        byte-for-byte equal.

        Delivery-rate sampling (draft-cheng-iccrg-delivery-rate-
        estimation) runs inline: both delivery loops apply the draft's
        UpdateRateSample to each newly delivered packet, on locals that
        are written back to ``rate_estimator`` before loss detection,
        and the tail builds the :class:`RateSample` the CCA receives
        (GenerateRateSample).
        """
        if not ack.is_ack:
            raise ValueError("TcpSender received a non-ACK packet")
        now = self.sim.now
        self.stats.acks_received += 1
        prior_una = self.snd_una
        meta_map = self._meta
        in_flight = (
            self.snd_nxt - prior_una - self.sacked_out - self.lost_out
            + self.retrans_out
        )
        rate = self.rate_estimator
        delivered = prior_total = rate.delivered
        first_sent_time = rate.first_sent_time
        app_limited_until = rate.app_limited_until
        # The sample's fields: the newest delivered packet's send stamps.
        prior_delivered = 0
        interval = 0.0
        is_app_limited = False
        rtt_sample: Optional[float] = None
        newly_acked = 0

        # --- cumulative ACK -------------------------------------------
        ack_seq = ack.ack_seq
        if ack_seq > prior_una:
            meta_popleft = meta_map.popleft
            sacked_out = self.sacked_out
            if sacked_out:
                self._sacked.remove_below(ack_seq)
            lost_out = self.lost_out
            retrans_out = self.retrans_out
            for _ in range(ack_seq - prior_una):
                meta = meta_popleft()
                if meta.sacked:
                    sacked_out -= 1
                else:
                    # UpdateRateSample, which skips a packet already
                    # counted (its delivered_time is cleared).
                    if meta.delivered_time is not None:
                        delivered += 1
                        if meta.delivered >= prior_delivered:
                            prior_delivered = meta.delivered
                            is_app_limited = meta.is_app_limited
                            send_elapsed = meta.sent_time - meta.first_sent_time
                            ack_elapsed = now - meta.delivered_time
                            interval = (
                                ack_elapsed if ack_elapsed > send_elapsed
                                else send_elapsed
                            )
                            first_sent_time = meta.sent_time
                        meta.delivered_time = None
                        if app_limited_until and delivered > app_limited_until:
                            app_limited_until = 0
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

        # --- SACK blocks ----------------------------------------------
        sack_blocks = ack.sack_blocks
        if sack_blocks:
            sacked_set = self._sacked
            # The set's bound lists; fill() and remove_below() update them
            # in place, so they stay valid across the loop.
            sacked_starts = sacked_set._starts
            sacked_ends = sacked_set._ends
            snd_una = self.snd_una
            snd_nxt = self.snd_nxt
            sacked_out = self.sacked_out
            lost_out = self.lost_out
            retrans_out = self.retrans_out
            for lo, hi in sack_blocks:
                if lo < snd_una:
                    lo = snd_una
                if hi > snd_nxt:
                    hi = snd_nxt
                if lo >= hi:
                    continue
                # Already SACKed in full: the receiver repeats its lowest
                # blocks on every ACK, and filling a range the set already
                # covers would leave it unchanged. The ranges are disjoint
                # and never adjacent, so the block is covered exactly when
                # the last range starting at or below lo reaches hi (the
                # case in which fill would return no hole).
                i = bisect_right(sacked_starts, lo) - 1
                if i >= 0 and hi <= sacked_ends[i]:
                    continue
                # Record the block and walk only what it newly covers.
                for gap_lo, gap_hi in sacked_set.fill(lo, hi):
                    for i in range(gap_lo - snd_una, gap_hi - snd_una):
                        meta = meta_map[i]
                        if meta.sacked:
                            continue
                        meta.sacked = True
                        sacked_out += 1
                        newly_acked += 1
                        # UpdateRateSample, as in the cumulative loop.
                        if meta.delivered_time is not None:
                            delivered += 1
                            if meta.delivered >= prior_delivered:
                                prior_delivered = meta.delivered
                                is_app_limited = meta.is_app_limited
                                send_elapsed = meta.sent_time - meta.first_sent_time
                                ack_elapsed = now - meta.delivered_time
                                interval = (
                                    ack_elapsed if ack_elapsed > send_elapsed
                                    else send_elapsed
                                )
                                first_sent_time = meta.sent_time
                            meta.delivered_time = None
                            if app_limited_until and delivered > app_limited_until:
                                app_limited_until = 0
                        if not meta.retransmitted:
                            rtt_sample = now - meta.sent_time
                        if meta.lost:
                            meta.lost = False
                            lost_out -= 1
                        if meta.in_retrans_out:
                            meta.in_retrans_out = False
                            retrans_out -= 1
            self.sacked_out = sacked_out
            self.lost_out = lost_out
            self.retrans_out = retrans_out

        # The CCA's loss and recovery hooks below read the delivery count.
        if delivered != prior_total:
            rate.delivered = delivered
            rate.delivered_time = now
            rate.first_sent_time = first_sent_time
            rate.app_limited_until = app_limited_until

        # --- loss detection -------------------------------------------
        newly_lost = self._mark_lost_from_sack() if self.sacked_out else 0

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
        rtt = self.rtt
        if rtt_sample is not None and rtt_sample > 0:
            rtt.on_measurement(rtt_sample)
        # GenerateRateSample: no rate without a delivery and a positive
        # interval, nor from an interval shorter than the path's min RTT,
        # which cannot yield a trustworthy bandwidth sample (draft §3.3).
        rs = RateSample.__new__(RateSample)
        rs.prior_in_flight = in_flight
        rs.prior_delivered = prior_delivered
        rs.interval = interval
        rs.is_app_limited = is_app_limited
        rs.rtt = rtt_sample
        rs.newly_acked = newly_acked
        rs.newly_lost = newly_lost
        rs.delivered = sample_delivered = delivered - prior_delivered
        min_rtt = rtt.min_rtt
        if (
            sample_delivered <= 0 or interval <= 0
            or (min_rtt is not None and interval < min_rtt)
        ):
            rs.delivery_rate = None
        else:
            rs.delivery_rate = sample_delivered / interval
        self.cca.on_ack(rs, self)
        if self.forwarder is not None:
            self.forwarder(now, "ack", self.cca.cwnd)
        if self._sanitizer is not None:
            self._sanitizer.check_sender(self)

        # --- completion / RTO rearm -----------------------------------
        if self.total_packets is not None and self.snd_una >= self.total_packets:
            if not self.completed:
                self.completed = True
                self._rto_deadline = None
                if self.completion_listener is not None:
                    self.completion_listener(self)
            return
        if self.snd_nxt > self.snd_una:
            # RFC 6298 §5.3: restart the timer only when new data is
            # acknowledged — dupACKs must not keep pushing it out, or a
            # lost retransmission would never time out. With a timer
            # already pending (the steady state) re-arming is one store;
            # _on_rto_timer re-checks the deadline when it fires.
            if ack_seq > prior_una or self._rto_deadline is None:
                deadline = now + self.rtt.rto
                self._rto_deadline = deadline
                if self._rto_event is None:
                    self._rto_event = self.sim.schedule_at(deadline, self._on_rto_timer)
        else:
            self._rto_deadline = None
        self._try_send()

    def _enter_recovery(self) -> None:
        self.in_recovery = True
        self.in_rto_recovery = False
        self.recovery_point = self.snd_nxt
        self.stats.loss_recovery_events += 1
        self.cca.on_loss_event(self)
        self._notify_cwnd("loss_event")

    def _mark_lost_from_sack(self) -> int:
        """RACK loss marking: any hole below the highest SACKed sequence
        that is neither SACKed nor already marked is lost.

        This is what Linux RACK-TLP converges to on a non-reordering
        path, and it is essential in the paper's CoreScale regime, where
        per-flow windows of ~4 packets can never produce the three
        duplicate ACKs classic RFC 6675 marking waits for. The
        ``_lost_scan`` watermark makes this incremental: each un-SACKed
        sequence is walked at most once over the connection's lifetime.
        Only the holes of ``_sacked`` above the watermark are visited,
        and the watermark then rises to the threshold. The ACK handler
        calls it only while ``sacked_out`` is non-zero: with nothing
        SACKed there is no threshold.
        """
        sacked_set = self._sacked
        threshold = sacked_set.max_value()
        snd_una = self.snd_una
        lo = self._lost_scan
        if lo < snd_una:
            lo = snd_una
        if threshold <= lo:
            return 0
        self._lost_scan = threshold
        meta_map = self._meta
        retx_heap = self._retx_heap
        newly = 0
        for hole_lo, hole_hi in sacked_set.holes_between(lo, threshold):
            for seq in range(hole_lo, hole_hi):
                meta = meta_map[seq - snd_una]
                if meta.sacked or meta.lost or meta.retransmitted:
                    continue
                meta.lost = True
                meta.retx_pending = True
                newly += 1
                heapq.heappush(retx_heap, seq)
        self.lost_out += newly
        return newly

    # ------------------------------------------------------------------
    # RTO machinery (lazy re-arm to avoid heap churn)
    #
    # ``_rto_event`` is None exactly when no RTO event is pending: the
    # handler clears it on entry and the engine has no cancellation, so
    # a non-None handle needs no event_pending() test. The sanitizer
    # checks this.
    # ------------------------------------------------------------------

    def _set_rto_deadline(self, deadline: float) -> None:
        self._rto_deadline = deadline
        if self._rto_event is None:
            self._rto_event = self.sim.schedule_at(deadline, self._on_rto_timer)

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
        self.stats.rto_events += 1
        self.rtt.on_timeout()
        # Let the CCA react while in_flight still reflects the pre-RTO
        # pipe (RFC 5681 sets ssthresh from FlightSize).
        self.cca.on_rto(self)
        # Mark every outstanding, un-SACKed packet lost and rebuild the
        # retransmission queue (RFC 6582 loss recovery, keeping SACK info).
        self._retx_heap = []
        self.retrans_out = 0
        self.lost_out = 0
        for seq, meta in enumerate(self._meta, self.snd_una):
            meta.in_retrans_out = False
            if meta.sacked:
                meta.lost = False
                continue
            meta.lost = True
            meta.retx_pending = True
            self.lost_out += 1
            heapq.heappush(self._retx_heap, seq)
        if self.snd_nxt > self._lost_scan:
            self._lost_scan = self.snd_nxt
        self.in_recovery = True
        self.in_rto_recovery = True
        self._rto_checked = False
        self.recovery_point = self.snd_nxt
        self._notify_cwnd("rto")
        if self._sanitizer is not None:
            self._sanitizer.check_sender(self)
        self._set_rto_deadline(self.sim.now + self.rtt.rto)
        self._try_send()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _notify_cwnd(self, kind: str) -> None:
        """Forward a rare-kind cwnd event to the bus, if one is bound.

        The per-ACK "ack" notification is inlined in :meth:`send`.
        """
        if self.forwarder is not None:
            self.forwarder(self.sim.now, kind, self.cca.cwnd)


class TcpReceiver:
    """The receiving side: reassembly, SACK generation, delayed ACKs.

    ``reverse_path`` is the first element of the ACK path, a timed sink,
    and is required: the receiver is built after it, so sending an ACK
    never tests for a missing one.

    The receiver is a timed sink itself: ``send(packet, at)`` takes the
    segment's arrival time, which the bottleneck hands over ahead of
    the clock (by at most the segment's queueing and serialisation
    delay), and every ACK leaves at the time it would have left had the
    segment arrived on the clock. Arrivals come in time order, so the
    receiver sees time move forward; only its delayed-ACK timer runs on
    the clock, and an arrival after the held segment's deadline sends
    that ACK first, at the deadline, as the timer would have.
    Anything the receiver counts per time window must test the arrival
    time it is given, never ``sim.now``.
    """

    #: SACK blocks per ACK (the TCP option space fits three alongside
    #: timestamps).
    MAX_SACK_BLOCKS = 3
    #: Delayed-ACK timer, seconds (Linux's 40 ms minimum).
    DELACK_TIMEOUT = 0.040

    __slots__ = (
        "sim",
        "flow_id",
        "reverse_path",
        "delayed_ack",
        "rcv_nxt",
        "received_packets",
        "duplicate_packets",
        "acks_sent",
        "_ooo",
        "_delack_deadline",
        "_delack_event",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        reverse_path: TimedSink,
        delayed_ack: bool = True,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.reverse_path = reverse_path
        self.delayed_ack = delayed_ack
        self.rcv_nxt = 0
        self.received_packets = 0
        self.duplicate_packets = 0
        self.acks_sent = 0
        self._ooo = RangeSet()
        # When the held segment's ACK is due; None when no segment is
        # held. At most one is: the receiver ACKs at least every second
        # full-sized segment (RFC 5681). _send_ack clears only the
        # deadline, so the timer event can outlive it: _on_delack
        # re-checks the deadline when it fires, as
        # TcpSender._on_rto_timer does.
        self._delack_deadline: Optional[float] = None
        # None exactly when no delayed-ACK timer event is pending:
        # _on_delack clears it on entry and the engine has no
        # cancellation, so arming tests the handle instead of calling
        # event_pending().
        self._delack_event: Optional[Event] = None

    def send(self, packet: Packet, at: float) -> None:
        """Timed-sink interface — the forward path delivers data here,
        arriving at ``at`` (now or ahead of the clock)."""
        if packet.is_ack:
            raise ValueError("TcpReceiver received an ACK packet")
        deadline = self._delack_deadline
        if deadline is not None and deadline < at:
            # The held segment's timer was due before this arrival; the
            # arrival may be ahead of the clock, the timer not yet fired.
            self._send_ack(None, deadline)
            deadline = None
        self.received_packets += 1
        seq = packet.seq
        rcv_nxt = self.rcv_nxt
        # Out-of-order state is tested through the RangeSet's start list
        # rather than RangeSet.__bool__: one call less per segment.
        ooo = self._ooo
        if seq == rcv_nxt and not ooo._starts:
            # In-order fast path (the overwhelmingly common case): the
            # arrival extends the contiguous prefix by exactly one and
            # there is no reordering state to reconcile, so the RangeSet
            # round-trip below (fill / remove_below) collapses to a
            # single increment. Behaviour is identical to the general
            # path for this case.
            self.rcv_nxt = rcv_nxt + 1
            if not self.delayed_ack or deadline is not None:
                # Every segment without delayed ACKs; with them, the
                # second of a pair (the first is held).
                self._send_ack(seq, at)
                return
            deadline = self._delack_deadline = at + self.DELACK_TIMEOUT
            if self._delack_event is None:
                self._delack_event = self.sim.schedule_at(deadline, self._on_delack)
            return
        # Below the cumulative point, or already buffered (fill covers
        # nothing new): a duplicate.
        if seq < rcv_nxt or not ooo.fill(seq, seq + 1):
            self.duplicate_packets += 1
        elif seq == rcv_nxt:
            # Every buffered range starts above rcv_nxt, so the range
            # now holding seq is the first one, and its end is the new
            # cumulative point.
            rcv_nxt = self.rcv_nxt = ooo._ends[0]
            ooo.remove_below(rcv_nxt)
        # Every arrival off the fast path is ACKed at once (RFC 5681
        # §4.2): a duplicate, data above the cumulative point, or the
        # segment at it while data is buffered, which either fills the
        # hole in front of that data or leaves data buffered.
        self._send_ack(seq, at)

    def _on_delack(self) -> None:
        self._delack_event = None
        deadline = self._delack_deadline
        if deadline is None:
            return
        if self.sim.now < deadline:
            # Armed for a segment that has been ACKed since; a later
            # segment set this deadline. Exact comparison, so the ACK
            # leaves at the deadline's own float.
            self._delack_event = self.sim.schedule_at(deadline, self._on_delack)
            return
        self._send_ack(None, deadline)

    def _sack_blocks(self, triggering_seq: Optional[int]) -> Tuple[SackBlock, ...]:
        """Up to :attr:`MAX_SACK_BLOCKS` out-of-order ranges.

        The range holding ``triggering_seq`` comes first (RFC 2018: the
        block for the segment that triggered this ACK), then the lowest
        other ranges in ascending order. One bisect finds the triggering
        range, so the cost is O(log F + blocks) for F fragments.
        """
        starts = self._ooo._starts
        ends = self._ooo._ends
        limit = self.MAX_SACK_BLOCKS
        if triggering_seq is not None:
            i = bisect_right(starts, triggering_seq) - 1
            if i >= 0 and triggering_seq < ends[i]:
                # The lowest others: the first ``limit`` ranges without
                # the triggering one, or without the last of them when
                # the triggering range lies further up.
                low_starts = starts[:limit]
                low_ends = ends[:limit]
                if i < limit:
                    del low_starts[i], low_ends[i]
                else:
                    del low_starts[-1], low_ends[-1]
                return ((starts[i], ends[i]),) + tuple(zip(low_starts, low_ends))
        return tuple(zip(starts[:limit], ends[:limit]))

    def _send_ack(self, triggering_seq: Optional[int], at: float) -> None:
        """Send the cumulative ACK, with SACK blocks, leaving at ``at``."""
        self._delack_deadline = None
        ack = Packet.__new__(Packet)
        ack.flow_id = self.flow_id
        ack.seq = 0
        ack.size = ACK_PACKET_BYTES
        ack.is_ack = True
        ack.ack_seq = self.rcv_nxt
        ack.sack_blocks = self._sack_blocks(triggering_seq) if self._ooo._starts else ()
        self.acks_sent += 1
        self.reverse_path.send(ack, at)
