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
  sequences. And random arrival orders with duplicates, driven through
  ``TcpReceiver.send``, must give the ``rcv_nxt``, duplicate count and
  ACK stream (each ``ack_seq`` and its SACK blocks) that a reference
  over a set of received sequences gives.

Derandomized with ``database=None`` (see test_engine_properties).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.tcp.cca.newreno import NewReno
from repro.tcp.connection import TcpReceiver, TcpSender
from repro.tcp.rangeset import RangeSet

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


class _AckLog:
    """Reverse path that records each ACK's cumulative point and blocks."""

    def __init__(self) -> None:
        self.acks: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []

    def send(self, packet: Packet) -> None:
        self.acks.append((packet.ack_seq, packet.sack_blocks))


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
    meta = sender._meta
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
            sender.send(Packet(0, is_ack=True, ack_seq=ack_seq, sack_blocks=tuple(blocks)))
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
    receiver = TcpReceiver(Simulator(sanitize=False), 0, _AckLog())
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


def _reference_receiver(arrivals: List[int], delayed_ack: bool):
    """RFC 5681/2018 receiving over a set of received sequences.

    Returns ``(rcv_nxt, duplicates, acks)``. A duplicate, an arrival
    that leaves or finds data above the cumulative point, and one that
    fills a hole (advancing it by more than one) are ACKed at once;
    other in-order data every second segment (the delayed-ACK timer
    never fires: the simulator is not run).
    """
    received: Set[int] = set()
    rcv_nxt = duplicates = unacked = 0
    acks: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []

    def ack(trigger: int) -> None:
        above = _runs({v for v in received if v >= rcv_nxt})
        blocks = _list_scan_sack_blocks(above, trigger, TcpReceiver.MAX_SACK_BLOCKS)
        acks.append((rcv_nxt, blocks))

    for seq in arrivals:
        if seq in received:
            duplicates += 1
            unacked = 0
            ack(seq)
            continue
        received.add(seq)
        prior = rcv_nxt
        while rcv_nxt in received:
            rcv_nxt += 1
        buffered = any(v >= rcv_nxt for v in received)
        if not delayed_ack or seq >= rcv_nxt or rcv_nxt - prior > 1 or buffered:
            unacked = 0
            ack(seq)
            continue
        unacked += 1
        if unacked >= TcpReceiver.ACK_QUOTA:
            unacked = 0
            ack(seq)
    return rcv_nxt, duplicates, acks


# Sequences from a small space, so orders mix reordering, holes that
# later fill, and duplicates both below and above the cumulative point.
_ARRIVALS = st.lists(st.integers(0, 24), min_size=1, max_size=60)


@PROPERTY_SETTINGS
@given(arrivals=_ARRIVALS, delayed_ack=st.booleans())
def test_receiver_matches_brute_force(arrivals, delayed_ack):
    log = _AckLog()
    receiver = TcpReceiver(Simulator(sanitize=False), 0, log, delayed_ack=delayed_ack)
    for seq in arrivals:
        receiver.send(Packet(0, seq))
    rcv_nxt, duplicates, acks = _reference_receiver(arrivals, delayed_ack)
    assert receiver.rcv_nxt == rcv_nxt
    assert receiver.duplicate_packets == duplicates
    assert receiver.received_packets == len(arrivals)
    assert log.acks == acks
    assert receiver.acks_sent == len(acks)
    assert receiver._ooo.consistency_error() is None
