"""Delivery-rate sampling (the BBR measurement substrate) on TcpSender.

The sender runs draft-cheng-iccrg-delivery-rate-estimation inline:
SendPacket in its send loop, UpdateRateSample in both ACK loops and
GenerateRateSample in the ACK handler's tail. These tests drive a live
:class:`TcpSender` with scripted ACK/SACK sequences, and after every ACK
compare the sample its CCA received, the connection's delivery state
and every outstanding packet's send stamps against :class:`_DraftRates`,
the draft's three steps written out over a dict of per-packet stamps.
The clock is set by hand between steps; nothing is run through the
event loop except where a test says so.

The reference encodes two conventions of this simulator: "newest"
packet means the highest ``delivered`` stamp, later packets winning
ties, and a sample's ``delivered`` is the connection's count minus the
newest packet's stamp (0 when nothing was delivered).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.tcp.cca.base import CongestionControl
from repro.tcp.connection import TcpSender
from repro.tcp.rate_sample import PacketMeta, RateSample
from repro.units import DATA_PACKET_BYTES
from tests.conftest import make_pipe
from tests.packets import make_packet


class _FixedWindow(CongestionControl):
    """Holds cwnd (and an optional pacing rate) fixed and records every
    rate sample it is handed."""

    name = "fixed"

    def __init__(self, cwnd: float = 10.0, pacing_rate: Optional[float] = None) -> None:
        super().__init__()
        self.cwnd = cwnd
        self.pacing_rate = pacing_rate
        self.samples: List[RateSample] = []

    def on_ack(self, rs, conn) -> None:
        self.samples.append(rs)


class _DraftRates:
    """SendPacket, UpdateRateSample and GenerateRateSample as the draft
    states them (C.* is the connection, P.* a packet, rs.* the sample)."""

    def __init__(self) -> None:
        self.delivered = 0
        self.delivered_time = 0.0
        self.first_sent_time = 0.0
        self.app_limited = 0
        self.packets: Dict[int, dict] = {}

    def send_packet(self, seq: int, now: float, pipe: int) -> None:
        if pipe == 0:
            self.first_sent_time = now
            self.delivered_time = now
        self.packets[seq] = {
            "sent_time": now,
            "first_sent_time": self.first_sent_time,
            "delivered": self.delivered,
            "delivered_time": self.delivered_time,
            "is_app_limited": self.app_limited != 0,
        }

    def mark_app_limited(self, pipe: int) -> None:
        self.app_limited = max(self.delivered + pipe, 1)

    def update_rate_sample(self, seq: int, now: float, rs: dict) -> None:
        p = self.packets[seq]
        if p["delivered_time"] is None:
            return  # counted on an earlier ACK
        self.delivered += 1
        self.delivered_time = now
        if not rs["has_data"] or p["delivered"] >= rs["prior_delivered"]:
            rs["has_data"] = True
            rs["prior_delivered"] = p["delivered"]
            rs["is_app_limited"] = p["is_app_limited"]
            rs["send_elapsed"] = p["sent_time"] - p["first_sent_time"]
            rs["ack_elapsed"] = self.delivered_time - p["delivered_time"]
            self.first_sent_time = p["sent_time"]
        p["delivered_time"] = None

    def generate_rate_sample(self, rs: dict, min_rtt: Optional[float]) -> dict:
        if self.app_limited and self.delivered > self.app_limited:
            self.app_limited = 0
        interval = max(rs["send_elapsed"], rs["ack_elapsed"])
        delivered = self.delivered - rs["prior_delivered"]
        rate = None
        if (
            rs["has_data"] and delivered > 0 and interval > 0
            and (min_rtt is None or interval >= min_rtt)
        ):
            rate = delivered / interval
        return {
            "delivered": delivered,
            "prior_delivered": rs["prior_delivered"],
            "interval": interval,
            "delivery_rate": rate,
            "is_app_limited": rs["is_app_limited"],
        }

    def on_ack(
        self,
        now: float,
        una: int,
        nxt: int,
        ack_seq: int,
        blocks: Tuple[Tuple[int, int], ...],
        min_rtt: Optional[float],
    ) -> dict:
        """Newly delivered packets in the order the ACK reports them:
        the cumulative range, then each SACK block clipped to the window
        that is left."""
        rs = {
            "has_data": False, "prior_delivered": 0, "is_app_limited": False,
            "send_elapsed": 0.0, "ack_elapsed": 0.0,
        }
        order = list(range(una, ack_seq))
        una = max(una, ack_seq)
        for lo, hi in blocks:
            order.extend(range(max(lo, una), min(hi, nxt)))
        for seq in order:
            self.update_rate_sample(seq, now, rs)
        return self.generate_rate_sample(rs, min_rtt)


def _scoreboard(sender: TcpSender) -> Dict[int, PacketMeta]:
    """The sender's outstanding packets' metadata, by sequence."""
    return dict(enumerate(sender._meta, sender.snd_una))


class _Harness:
    """A TcpSender whose forward path is this object: every transmission
    is replayed into the reference once the step that caused it ends."""

    def __init__(self, cwnd: float = 10.0, pacing_rate: Optional[float] = None) -> None:
        self.sim = Simulator(sanitize=False)
        self.cca = _FixedWindow(cwnd, pacing_rate)
        self.ref = _DraftRates()
        self.sender = TcpSender(self.sim, 0, self.cca, path=self)
        self._sent: List[Tuple[int, float, int]] = []

    def send(self, packet: Packet) -> None:
        # The pipe this packet joins: the sender has already counted it.
        self._sent.append((packet.seq, self.sim.now, self.sender.in_flight - 1))

    def _flush(self) -> None:
        for seq, now, pipe in self._sent:
            self.ref.send_packet(seq, now, pipe)
        self._sent.clear()
        self.check_state()

    def start(self, at: float = 0.0) -> None:
        self.sim.now = at
        self.sender.start()
        self._flush()

    def rto(self, at: float) -> None:
        self.sim.now = at
        self.sender._fire_rto()
        self._flush()

    def mark_app_limited(self) -> None:
        pipe = self.sender.in_flight
        self.sender.rate_estimator.mark_app_limited(pipe)
        self.ref.mark_app_limited(pipe)

    def ack(self, at: float, ack_seq: int, *blocks: Tuple[int, int]) -> RateSample:
        self.sim.now = at
        sender = self.sender
        una, nxt, pipe = sender.snd_una, sender.snd_nxt, sender.in_flight
        before = len(self.cca.samples)
        sender.send(make_packet(0, is_ack=True, ack_seq=ack_seq, sack_blocks=blocks))
        [rs] = self.cca.samples[before:]
        expected = self.ref.on_ack(at, una, nxt, ack_seq, blocks, sender.rtt.min_rtt)
        assert {name: getattr(rs, name) for name in expected} == expected
        assert rs.prior_in_flight == pipe
        self._flush()
        return rs

    def check_state(self) -> None:
        rate = self.sender.rate_estimator
        ref = self.ref
        assert (
            rate.delivered, rate.delivered_time, rate.first_sent_time,
            rate.app_limited_until,
        ) == (ref.delivered, ref.delivered_time, ref.first_sent_time, ref.app_limited)
        for seq, meta in _scoreboard(self.sender).items():
            stamps = {name: getattr(meta, name) for name in ref.packets[seq]}
            assert stamps == ref.packets[seq], seq


def test_send_stamps_connection_state():
    h = _Harness()
    h.start(at=1.0)
    meta = _scoreboard(h.sender)[0]
    assert meta.delivered == 0
    assert meta.delivered_time == 1.0  # idle restart resets to now
    assert meta.first_sent_time == 1.0
    assert meta.is_app_limited is False
    assert h.sender.rate_estimator.first_sent_time == 1.0


def test_new_packet_state_has_clear_scoreboard_flags():
    h = _Harness()
    h.start()
    assert len(_scoreboard(h.sender)) == 10
    for meta in _scoreboard(h.sender).values():
        assert not (
            meta.retransmitted or meta.retx_pending or meta.in_retrans_out
            or meta.sacked or meta.lost
        )


def test_retransmission_restamps_the_same_state():
    h = _Harness()
    h.start()
    meta = _scoreboard(h.sender)[0]
    # Packets 1-3 SACKed: packet 0 is marked lost and retransmitted at
    # once, into a pipe that is not empty.
    h.ack(0.05, 0, (1, 4))
    assert _scoreboard(h.sender)[0] is meta
    assert meta.retransmitted  # scoreboard flags are left alone
    assert meta.sent_time == 0.05
    assert meta.first_sent_time == 0.0  # no idle restart
    assert meta.delivered == 3


def test_steady_rate_measured_exactly(sim):
    """Steady state: one packet paced out every 10 ms over a 100 ms RTT
    -> delivery rate = 100 packets/second."""
    cca = _FixedWindow(cwnd=100.0, pacing_rate=DATA_PACKET_BYTES * 8.0 / 0.01)
    sender, _, _ = make_pipe(sim, cca, one_way_delay=0.05, delayed_ack=False)
    sender.start()
    sim.run(until=1.0)
    rates = [rs.delivery_rate for rs in cca.samples[20:]]
    assert rates and all(rate == pytest.approx(100.0, rel=0.05) for rate in rates)


def test_double_delivery_ignored():
    """A packet SACKed on one ACK and covered by the next cumulative ACK
    is counted once."""
    h = _Harness()
    h.start()
    rs = h.ack(0.05, 0, (2, 3))
    assert h.sender.rate_estimator.delivered == 1
    assert rs.delivered == 1
    rs = h.ack(0.06, 4)  # packets 0, 1 and 3 are new; 2 is not
    assert h.sender.rate_estimator.delivered == 4
    assert rs.newly_acked == 3


def test_sample_invalid_without_deliveries():
    h = _Harness()
    h.start()
    rs = h.ack(0.05, 0)  # a duplicate ACK delivers nothing
    assert rs.delivery_rate is None
    assert rs.delivered == 0
    assert rs.interval == 0.0


def test_interval_below_min_rtt_rejected():
    """The min-RTT hint (draft §3.3): after a spurious RTO the original
    ACKs return just after the retransmissions, which take no RTT
    sample. Both elapsed terms then sit far below the 50 ms min RTT, so
    the over-optimistic sample is discarded."""
    h = _Harness()
    h.start()
    h.ack(0.05, 1)  # min RTT 50 ms
    h.rto(1.0)  # retransmits packets 1-10 into an empty pipe
    rs = h.ack(1.0002, 2)
    assert h.sender.rtt.min_rtt == 0.05
    assert rs.interval == pytest.approx(0.0002)
    assert rs.delivery_rate is None
    # The same geometry with no min-RTT floor is accepted: an RTO before
    # any ACK, then an ACK of retransmissions only, which take no sample.
    h = _Harness()
    h.start()
    h.rto(1.0)
    rs = h.ack(1.0002, 1)
    assert h.sender.rtt.min_rtt is None
    assert rs.interval == pytest.approx(0.0002)
    assert rs.delivery_rate == pytest.approx(1 / 0.0002)


def test_app_limited_marking_and_clearing():
    h = _Harness()
    h.sender.rate_estimator.mark_app_limited(2)
    h.ref.mark_app_limited(2)
    assert h.sender.rate_estimator.app_limited_until == 2
    h.start()
    assert all(meta.is_app_limited for meta in _scoreboard(h.sender).values())
    rs = h.ack(0.05, 1)
    assert rs.is_app_limited
    assert h.sender.rate_estimator.app_limited_until == 2
    # Delivering past the marker clears it; later packets are not marked.
    h.ack(0.06, 3)
    assert h.sender.rate_estimator.app_limited_until == 0
    assert not _scoreboard(h.sender)[12].is_app_limited


def test_prior_in_flight_recorded():
    h = _Harness()
    h.start()
    rs = h.ack(0.05, 2, (4, 6))
    assert rs.prior_in_flight == 10


def test_idle_restart_resets_first_sent_time():
    """After the pipe drains, the next transmission restarts the sampling
    interval, so a long idle gap does not depress the sample."""
    gap = 10.0
    h = _Harness(cwnd=10.0, pacing_rate=DATA_PACKET_BYTES * 8.0 / gap)
    h.start()  # one packet, then the pacing timer for t = 10 s
    h.ack(0.1, 1)
    h.sim.run(until=gap)  # the pacing timer sends packet 1
    h._flush()
    meta = _scoreboard(h.sender)[1]
    assert meta.first_sent_time == gap
    rs = h.ack(gap + 0.1, 2)
    # The idle gap must not depress the rate sample: interval ~0.1 s.
    assert rs.delivery_rate == pytest.approx(10.0, rel=0.1)


# One step: ("ack", time step, cumulative advance, [(offset, length)]),
# ("rto", time step, 0, []) or ("app", 0, 0, []). Blocks start
# ``offset`` modulo the window above snd_una, as in the scoreboard
# property test.
_DT = st.sampled_from([0.0001, 0.001, 0.005, 0.02, 0.05])
_BLOCK = st.tuples(st.integers(0, 40), st.integers(1, 6))
_ADVANCE = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(0, 64))
_ACK = st.tuples(st.just("ack"), _DT, _ADVANCE, st.lists(_BLOCK, max_size=3))
_RTO = st.tuples(st.just("rto"), _DT, st.just(0), st.just([]))
_APP = st.tuples(st.just("app"), st.just(0.0), st.just(0), st.just([]))
_STEPS = st.lists(
    st.one_of(_ACK, _ACK, _ACK, _ACK, _ACK, _RTO, _APP), min_size=1, max_size=40
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(steps=_STEPS)
def test_rate_samples_match_the_draft_reference(steps):
    h = _Harness(cwnd=8.0)
    h.start()
    now = 0.0
    for kind, dt, advance, raw_blocks in steps:
        now += dt
        una, nxt = h.sender.snd_una, h.sender.snd_nxt
        if kind == "app":
            h.mark_app_limited()
        elif kind == "rto":
            if nxt > una:
                h.rto(now)
        else:
            ack_seq = min(una + advance, nxt)
            starts = [una + off % (nxt - una + 1) for off, _ in raw_blocks]
            blocks = tuple(
                (lo, lo + length) for lo, (_, length) in zip(starts, raw_blocks)
            )
            h.ack(now, ack_seq, *blocks)
