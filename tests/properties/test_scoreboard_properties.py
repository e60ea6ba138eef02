"""Differential property tests: the SACK scoreboard vs brute force.

The sender keeps one RangeSet of SACKed sequences plus a loss-scan
watermark and per-packet flags; the receiver builds its SACK blocks
with one bisect. Both are incremental shortcuts, so each is checked
here against the obvious construction over plain Python sets and
lists:

- **Sender.** Hypothesis drives a live :class:`TcpSender` with random
  ACK streams — a cumulative point, up to three SACK blocks, and an
  occasional RTO — and after every step compares the marked-lost set,
  ``lost_out``, ``sacked_out`` and the retransmission order against a
  reference written over a set of ints: RACK marks every sequence
  below the highest SACKed one.
- **Receiver.** ``TcpReceiver._sack_blocks`` must equal the original
  list-scan construction for random fragment sets and triggering
  sequences. And random arrival orders with duplicates, delivered at
  random times through a running simulator, each handed over on the
  clock or ahead of it by a random lead (as the bottleneck hands a
  segment over at admission, its queueing delay early), must give the
  ``rcv_nxt``,
  duplicate count and ACK stream (each ACK's emission time, ``ack_seq``
  and SACK blocks) that a reference over a set of received sequences
  gives. The reference's delayed-ACK timer is the cancel-based one: an
  ACK cancels it, and a held segment arms a fresh one. The receiver's
  timer instead re-checks its deadline when it fires, so a stale event
  re-arms at the deadline; the two must emit every ACK at the same
  float time.

Derandomized with ``database=None`` (see test_engine_properties).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.tcp.cca.newreno import NewReno
from repro.tcp.connection import TcpReceiver, TcpSender
from repro.tcp.rangeset import RangeSet
from tests.packets import make_packet

PROPERTY_SETTINGS = settings(
    max_examples=150, derandomize=True, database=None, deadline=None
)

# One step: ("ack", cumulative advance, [(offset, length), ...]) or
# ("rto", 0, []). A block starts ``offset`` modulo the window above
# snd_una, so blocks land inside small windows too; the sender clips
# whatever sticks out past snd_nxt.
_BLOCK = st.tuples(st.integers(0, 40), st.integers(1, 6))
# Mostly small cumulative advances (losses stay outstanding), sometimes
# a jump that clears the window so new data goes out after an RTO.
_ADVANCE = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(0, 64))
_ACK = st.tuples(st.just("ack"), _ADVANCE, st.lists(_BLOCK, max_size=3))
_RTO = st.tuples(st.just("rto"), st.just(0), st.just([]))
_STEPS = st.lists(st.one_of(_ACK, _ACK, _ACK, _ACK, _RTO), min_size=1, max_size=40)


class _Wire:
    """Forward path that records every transmitted sequence."""

    def __init__(self) -> None:
        self.sent: List[int] = []

    def send(self, packet: Packet) -> None:
        self.sent.append(packet.seq)


#: An ACK as the receiver emitted it: (time, ack_seq, SACK blocks).
_Ack = Tuple[float, int, Tuple[Tuple[int, int], ...]]


class _AckLog:
    """Reverse path that records each ACK's emission time, cumulative
    point and blocks; an emission time before the clock fails."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.acks: List[_Ack] = []

    def send(self, packet: Packet, at: float) -> None:
        assert at >= self.sim.now, (at, self.sim.now)
        self.acks.append((at, packet.ack_seq, packet.sack_blocks))


class _Reference:
    """The scoreboard recomputed from scratch over sets of ints."""

    def __init__(self) -> None:
        self.sacked: Set[int] = set()
        self.lost: Set[int] = set()
        #: Lost and not yet retransmitted since it was marked.
        self.pending: Set[int] = set()

    def is_lost(self, seq: int) -> bool:
        return any(s > seq for s in self.sacked)

    def on_ack(self, una: int, nxt: int, blocks: List[Tuple[int, int]]) -> None:
        for name in ("sacked", "lost", "pending"):
            setattr(self, name, {s for s in getattr(self, name) if s >= una})
        for lo, hi in blocks:
            self.sacked.update(range(max(lo, una), min(hi, nxt)))
        self.lost -= self.sacked
        self.pending -= self.sacked
        for seq in range(una, nxt):
            if seq not in self.sacked and seq not in self.lost and self.is_lost(seq):
                self.lost.add(seq)
                self.pending.add(seq)

    def on_rto(self, una: int, nxt: int) -> None:
        self.lost = {s for s in range(una, nxt) if s not in self.sacked}
        self.pending = set(self.lost)

    def on_sent(self, nxt_before: int, sent: List[int]) -> None:
        """Retransmissions go out lowest pending sequence first."""
        retransmitted = [s for s in sent if s < nxt_before]
        assert retransmitted == sorted(self.pending)[: len(retransmitted)]
        self.pending.difference_update(retransmitted)


def _check(sender: TcpSender, ref: _Reference) -> None:
    meta = dict(enumerate(sender._meta, sender.snd_una))
    marked = {seq for seq, m in meta.items() if m.lost}
    assert marked == ref.lost
    assert sender.lost_out == len(ref.lost)
    assert {seq for seq, m in meta.items() if m.sacked} == ref.sacked
    assert sender.sacked_out == len(ref.sacked)
    assert len(sender._sacked) == len(ref.sacked)
    # The heap's effective order: what _next_retransmit would pop.
    heap_order: List[int] = []
    for seq in sorted(sender._retx_heap):
        m = meta.get(seq)
        if (
            seq >= sender.snd_una and m is not None and m.lost and not m.sacked
            and m.retx_pending and seq not in heap_order
        ):
            heap_order.append(seq)
    assert heap_order == sorted(ref.pending)


@PROPERTY_SETTINGS
@given(steps=_STEPS)
def test_sender_scoreboard_matches_brute_force(steps):
    sim = Simulator(sanitize=False)
    wire = _Wire()
    sender = TcpSender(sim, 0, NewReno(), path=wire)
    ref = _Reference()
    sender.start()
    for kind, advance, raw_blocks in steps:
        una, nxt = sender.snd_una, sender.snd_nxt
        wire.sent.clear()
        if kind == "rto":
            if nxt == una:
                continue
            sender._fire_rto()
            ref.on_rto(una, nxt)
        else:
            ack_seq = min(una + advance, nxt)
            starts = [una + off % (nxt - una + 1) for off, _ in raw_blocks]
            blocks = [(lo, lo + length) for lo, (_, length) in zip(starts, raw_blocks)]
            sender.send(make_packet(0, is_ack=True, ack_seq=ack_seq, sack_blocks=tuple(blocks)))
            ref.on_ack(ack_seq, nxt, blocks)
        ref.on_sent(nxt, wire.sent)
        _check(sender, ref)


def _list_scan_sack_blocks(
    ranges: List[Tuple[int, int]], triggering_seq: Optional[int], limit: int
) -> Tuple[Tuple[int, int], ...]:
    """The original construction: the triggering range, then a scan of
    every fragment in ascending order for ones not yet chosen."""
    blocks: List[Tuple[int, int]] = []
    if triggering_seq is not None:
        for r in ranges:
            if r[0] <= triggering_seq < r[1]:
                blocks.append(r)
                break
    for r in ranges:
        if len(blocks) >= limit:
            break
        if r not in blocks:
            blocks.append(r)
    return tuple(blocks)


_FRAGMENTS = st.lists(
    st.tuples(st.integers(0, 120), st.integers(1, 5)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1,
    max_size=25,
)


@PROPERTY_SETTINGS
@given(fragments=_FRAGMENTS, trigger=st.one_of(st.none(), st.integers(0, 130)))
def test_receiver_sack_blocks_match_list_scan(fragments, trigger):
    sim = Simulator(sanitize=False)
    receiver = TcpReceiver(sim, 0, _AckLog(sim))
    receiver._ooo = RangeSet(fragments)
    expected = _list_scan_sack_blocks(
        receiver._ooo.ranges(), trigger, TcpReceiver.MAX_SACK_BLOCKS
    )
    assert receiver._sack_blocks(trigger) == expected


def _runs(values: Set[int]) -> List[Tuple[int, int]]:
    """The maximal runs of ``values`` as ascending half-open ranges."""
    runs: List[Tuple[int, int]] = []
    for v in sorted(values):
        if runs and runs[-1][1] == v:
            runs[-1] = (runs[-1][0], v + 1)
        else:
            runs.append((v, v + 1))
    return runs


def _reference_receiver(arrivals: List[Tuple[float, int]], delayed_ack: bool):
    """RFC 5681/2018 receiving over a set of received sequences.

    ``arrivals`` are ``(time, seq)`` in time order. Returns ``(rcv_nxt,
    duplicates, acks)``. A duplicate, an arrival that leaves or finds
    data above the cumulative point, and one that fills a hole
    (advancing it by more than one) are ACKed at once; other in-order
    data every second segment, or :attr:`TcpReceiver.DELACK_TIMEOUT`
    after a lone one. The timer is cancelled by every ACK and armed
    afresh for each held segment. Arrivals due at the instant the timer
    is due come first: they were scheduled before it.
    """
    received: Set[int] = set()
    rcv_nxt = duplicates = unacked = 0
    timer_at: Optional[float] = None
    acks: List[_Ack] = []

    def ack(now: float, trigger: Optional[int]) -> None:
        nonlocal unacked, timer_at
        unacked = 0
        timer_at = None
        above = _runs({v for v in received if v >= rcv_nxt})
        blocks = _list_scan_sack_blocks(above, trigger, TcpReceiver.MAX_SACK_BLOCKS)
        acks.append((now, rcv_nxt, blocks))

    for now, seq in arrivals:
        if timer_at is not None and timer_at < now:
            ack(timer_at, None)
        if seq in received:
            duplicates += 1
            ack(now, seq)
            continue
        received.add(seq)
        prior = rcv_nxt
        while rcv_nxt in received:
            rcv_nxt += 1
        buffered = any(v >= rcv_nxt for v in received)
        if not delayed_ack or seq >= rcv_nxt or rcv_nxt - prior > 1 or buffered:
            ack(now, seq)
            continue
        unacked += 1
        if unacked >= 2:  # RFC 5681: ACK at least every second segment
            ack(now, seq)
        else:
            timer_at = now + TcpReceiver.DELACK_TIMEOUT
    if timer_at is not None:
        ack(timer_at, None)
    return rcv_nxt, duplicates, acks


_DELACK = TcpReceiver.DELACK_TIMEOUT

# Sequences from a small space, so orders mix reordering, holes that
# later fill, and duplicates both below and above the cumulative point.
# Each comes a gap after the one before: a zero gap (several segments at
# one instant), exactly the delayed-ACK timeout (an arrival due at the
# instant a held segment's timer is), or any gap up to 2.5 timeouts, so
# timers both fire and are overtaken.
_GAP = st.one_of(st.sampled_from([0.0, _DELACK]), st.floats(0.0, 2.5 * _DELACK))
# How far ahead of the clock the segment is handed over: on the clock,
# or by up to three timeouts, so a segment often arrives after a held
# segment's deadline while that segment's timer has not fired yet.
_LEAD = st.one_of(st.just(0.0), st.floats(0.0, 3.0 * _DELACK))
_ARRIVALS = st.lists(
    st.tuples(st.integers(0, 24), _GAP, _LEAD), min_size=1, max_size=60
)


@PROPERTY_SETTINGS
@given(arrivals=_ARRIVALS, delayed_ack=st.booleans())
# A segment held while a stale timer is pending: 0 is held, 1 ACKs the
# pair, 2 is held at 0.02 and its ACK is due at 0.06, after the timer
# armed for 0 fires at 0.04.
@example(arrivals=[(0, 0.0, 0.0), (1, 0.01, 0.0), (2, 0.01, 0.0)], delayed_ack=True)
# Segments due exactly at a deadline: 2 arrives at the instant the
# stale timer armed for 0 is due, and 3 at the instant 2's ACK is due,
# so 3 is ACKed with 2 as a pair.
@example(
    arrivals=[(0, 0.0, 0.0), (1, 0.0, 0.0), (2, _DELACK, 0.0), (3, _DELACK, 0.0)],
    delayed_ack=True,
)
# Gaps longer than the timeout: every lone segment is ACKed by its own
# timer.
@example(
    arrivals=[(0, 0.0, 0.0), (1, 0.05, 0.0), (2, 0.1, 0.0), (3, 0.0, 0.0)],
    delayed_ack=True,
)
# A deep queue: 1 is handed over at 0, two timeouts ahead of the clock,
# so 0's ACK (due at 0.04) must leave before 1 is handled.
@example(arrivals=[(0, 0.0, 0.0), (1, 2 * _DELACK, 2 * _DELACK)], delayed_ack=True)
# Handed over ahead of the clock, exactly at the deadline: the segment
# pairs with the held one, as on the clock.
@example(arrivals=[(0, 0.0, 0.0), (1, _DELACK, _DELACK)], delayed_ack=True)
def test_receiver_matches_brute_force(arrivals, delayed_ack):
    sim = Simulator(sanitize=False)
    log = _AckLog(sim)
    receiver = TcpReceiver(sim, 0, log, delayed_ack=delayed_ack)
    timed: List[Tuple[float, int]] = []
    now = handed = 0.0
    for seq, gap, lead in arrivals:
        now += gap
        timed.append((now, seq))
        # Handed over in arrival order, never after the arrival itself.
        handed = max(handed, now - lead)
        sim.schedule_at(handed, receiver.send, make_packet(0, seq), now)
    # A timer that re-arms at its own instant never lets the clock move:
    # the budget turns that into a missing ACK instead of a hang.
    sim.run(max_events=4 * len(arrivals))
    rcv_nxt, duplicates, acks = _reference_receiver(timed, delayed_ack)
    assert receiver.rcv_nxt == rcv_nxt
    assert receiver.duplicate_packets == duplicates
    assert receiver.received_packets == len(arrivals)
    assert log.acks == acks
    assert receiver.acks_sent == len(acks)
    assert receiver._ooo.consistency_error() is None
