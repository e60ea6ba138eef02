"""Runtime simulation sanitizer: toggles, trip wires, clean runs."""

from __future__ import annotations

import math

import pytest

from repro.lint.sanitizer import SanitizerError, SimSanitizer
from repro.sim.engine import _FN, _TIME, Simulator
from repro.sim.link import Link
from repro.sim.queue import DropTailQueue
from repro.tcp.cca.newreno import NewReno
from repro.tcp.rate_sample import PacketMeta
from tests.conftest import make_pipe
from tests.packets import make_packet


# ----------------------------------------------------------------------
# Enablement
# ----------------------------------------------------------------------

def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert Simulator().sanitizer is None


def test_env_var_enables(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitizer is not None


def test_env_var_zero_disables(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator().sanitizer is None


def test_constructor_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator(sanitize=False).sanitizer is None
    monkeypatch.delenv("REPRO_SANITIZE")
    assert Simulator(sanitize=True).sanitizer is not None


# ----------------------------------------------------------------------
# Engine invariants
# ----------------------------------------------------------------------

def test_nan_schedule_trips():
    sim = Simulator(sanitize=True)
    with pytest.raises(SanitizerError, match="NaN"):
        sim.schedule(math.nan, lambda: None)


def test_clean_run_counts_checks():
    sim = Simulator(sanitize=True)
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b"]
    assert sim.sanitizer is not None and sim.sanitizer.checks_performed >= 4


def test_clock_regression_trips():
    sim = Simulator(sanitize=True)
    sim.schedule(1.0, lambda: None)
    sim.now = 5.0  # corrupt the clock behind the engine's back
    with pytest.raises(SanitizerError, match="clock regression"):
        sim.run()


# ----------------------------------------------------------------------
# Queue byte conservation
# ----------------------------------------------------------------------

def _watched_queue(capacity=10_000):
    sim = Simulator(sanitize=True)
    queue = DropTailQueue(capacity)
    sim.sanitizer.watch_queue(queue)
    return sim, queue


def test_clean_queue_traffic_passes():
    _, queue = _watched_queue()
    for seq in range(5):
        assert queue.offer(0.0, make_packet(0, seq, 1000))
    while queue.poll() is not None:
        pass
    assert queue.occupancy_bytes == 0


def test_injected_byte_leak_trips_on_enqueue():
    _, queue = _watched_queue()
    assert queue.offer(0.0, make_packet(0, 0, 1000))
    # Inject the bug: bytes appear in the occupancy ledger without ever
    # having been admitted (the class of accounting slip the sanitizer
    # exists for).
    queue.occupancy_bytes += 123
    with pytest.raises(SanitizerError, match="byte conservation"):
        queue.offer(0.0, make_packet(0, 1, 1000))


def test_injected_byte_leak_trips_on_dequeue():
    _, queue = _watched_queue()
    assert queue.offer(0.0, make_packet(0, 0, 1000))
    queue.occupancy_bytes -= 7  # leak in the other direction
    with pytest.raises(SanitizerError, match="byte conservation"):
        queue.poll()


def test_reject_path_checks_conservation():
    _, queue = _watched_queue(capacity=1500)
    assert queue.offer(0.0, make_packet(0, 0, 1000))
    queue.occupancy_bytes += 1  # corrupt, then force a tail drop
    with pytest.raises(SanitizerError, match="byte conservation"):
        queue.offer(0.0, make_packet(0, 1, 1000))


def test_resize_eviction_stays_conserved():
    _, queue = _watched_queue(capacity=20_000)
    for seq in range(20):
        assert queue.offer(0.0, make_packet(0, seq, 1000))
    # Shrinking below the backlog evicts from the tail: the in-queue drop
    # path must keep the ledger balanced through eviction and the drain.
    queue.set_capacity(5_000, now=1.0)
    assert queue.dropped_packets == 15
    while queue.poll() is not None:
        pass
    assert queue.occupancy_bytes == 0


# ----------------------------------------------------------------------
# Link invariants
# ----------------------------------------------------------------------

class _Counter:
    def __init__(self):
        self.packets = []

    def send(self, packet):
        self.packets.append(packet)


def test_link_transmits_clean_under_sanitizer():
    sim = Simulator(sanitize=True)
    sink = _Counter()
    link = Link(sim, rate_bps=8_000_000, delay=0.001, routes=[sink.send])
    for seq in range(10):
        link.send(make_packet(0, seq, 1000))
    sim.run()
    assert len(sink.packets) == 10
    assert link.queue.sanitizer is sim.sanitizer


def test_link_finish_while_idle_trips():
    sim = Simulator(sanitize=True)
    link = Link(sim, rate_bps=8_000_000, delay=0.0, routes=[_Counter().send])
    assert not link.busy
    with pytest.raises(SanitizerError, match="while link idle"):
        sim.sanitizer.on_link_finish(link, make_packet(3, 0, 1000))


# ----------------------------------------------------------------------
# TCP sender invariants
# ----------------------------------------------------------------------

class _BrokenCca(NewReno):
    """Collapses cwnd below 1 MSS on the first ACK."""

    def on_ack(self, rs, conn):
        self.cwnd = 0.25


def test_cwnd_below_one_mss_trips():
    sim = Simulator(sanitize=True)
    sender, _, _ = make_pipe(sim, _BrokenCca(), total_packets=50)
    sender.start()
    with pytest.raises(SanitizerError, match="below 1 MSS"):
        sim.run()


def test_corrupt_rangeset_trips():
    sim = Simulator(sanitize=True)
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=10)
    # Hand-corrupt the SACK scoreboard: overlapping ranges violate the
    # representation invariant every bisect query relies on.
    sender._sacked._starts = [0, 2]
    sender._sacked._ends = [5, 7]
    with pytest.raises(SanitizerError, match="RangeSet corrupt"):
        sim.sanitizer.check_sender(sender)


def _new_meta():
    """A never-sent packet's metadata, every scoreboard flag clear."""
    meta = PacketMeta.__new__(PacketMeta)
    meta.retransmitted = meta.retx_pending = meta.in_retrans_out = False
    meta.sacked = meta.lost = False
    return meta


def _sender_with_window(snd_una, snd_nxt):
    """A sanitized sender whose window is [snd_una, snd_nxt), nothing
    SACKed or lost: a consistent scoreboard for a test to corrupt."""
    sim = Simulator(sanitize=True)
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=20)
    sender.snd_una = snd_una
    sender.snd_nxt = snd_nxt
    sender._meta.extend(_new_meta() for _ in range(snd_una, snd_nxt))
    sim.sanitizer.check_sender(sender)  # clean before the corruption
    return sim, sender


def test_stray_scoreboard_entry_trips():
    sim, sender = _sender_with_window(5, 10)
    # A sixth entry for five sequences: every index past it would read
    # the wrong sequence's metadata.
    sender._meta.append(_new_meta())
    with pytest.raises(
        SanitizerError, match=r"scoreboard holds 6 entries for the 5 sequences"
    ):
        sim.sanitizer.check_sender(sender)


def test_sacked_count_mismatch_trips():
    sim, sender = _sender_with_window(0, 10)
    sender._sacked.fill(4, 8)  # sacked_out never counted these
    with pytest.raises(SanitizerError, match="holds 4 sequences but sacked_out=0"):
        sim.sanitizer.check_sender(sender)


def test_sacked_above_snd_nxt_trips():
    sim, sender = _sender_with_window(0, 10)
    sender._sacked.fill(8, 12)  # 10 and 11 were never sent
    sender.sacked_out = 4
    with pytest.raises(SanitizerError, match=r"outside \[snd_una, snd_nxt\)"):
        sim.sanitizer.check_sender(sender)


def test_sacked_below_snd_una_trips():
    sim, sender = _sender_with_window(5, 10)
    sender._sacked.fill(3, 7)  # 3 and 4 are already cumulatively ACKed
    sender.sacked_out = 4
    with pytest.raises(SanitizerError, match=r"outside \[snd_una, snd_nxt\)"):
        sim.sanitizer.check_sender(sender)


def test_lost_above_loss_scan_watermark_trips():
    sim, sender = _sender_with_window(0, 10)
    sender._lost_scan = 2
    sender.lost_out = 2  # both sequences below the watermark: fine
    sim.sanitizer.check_sender(sender)
    sender.lost_out = 3  # one lost packet the marker never visited
    with pytest.raises(SanitizerError, match="below the loss-scan watermark 2"):
        sim.sanitizer.check_sender(sender)


def test_stale_rto_handle_trips():
    sim = Simulator(sanitize=True)
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=20)
    sender.start()  # the first transmission arms the RTO timer
    assert sender._rto_event is not None
    sim.sanitizer.check_sender(sender)  # handle set, event pending: clean
    # Marked fired, as the engine does on execution, while the handle
    # is still set: the ACK handler would keep storing deadlines for a
    # timer that can never fire.
    sender._rto_event[_FN] = None
    with pytest.raises(SanitizerError, match="RTO timer handle is set"):
        sim.sanitizer.check_sender(sender)


class _PacedReno(NewReno):
    @property
    def pacing_rate(self):
        return 1_500 * 8 * 100.0  # 100 packets per second


def test_pacing_timer_after_pacing_next_trips():
    sim = Simulator(sanitize=True)
    sender, _, _ = make_pipe(sim, _PacedReno(), total_packets=20)
    sender.start()  # one packet, then the pacing timer for the next
    timer = sender._send_timer
    assert timer is not None and timer[_FN] is not None
    assert timer[_TIME] == sender._pacing_next
    sim.sanitizer.check_sender(sender)  # timer due at _pacing_next: clean
    # A pending timer is kept rather than moved earlier, so a
    # _pacing_next below it would hold the next packet back too long.
    sender._pacing_next = timer[_TIME] / 2
    with pytest.raises(SanitizerError, match="pacing timer pending"):
        sim.sanitizer.check_sender(sender)


def test_diagnostic_names_flow_and_time():
    sim = Simulator(sanitize=True)
    sender, _, _ = make_pipe(sim, _BrokenCca(), total_packets=50)
    sender.start()
    with pytest.raises(SanitizerError, match=r"t=\d+\.\d+ flow=0"):
        sim.run()


def test_clean_transfer_passes_sanitized():
    sim = Simulator(sanitize=True)
    sender, receiver, _ = make_pipe(
        sim, NewReno(), total_packets=200, drop_indices=(7, 31)
    )
    sender.start()
    sim.run()
    assert sender.completed
    assert receiver.rcv_nxt == 200
    assert sim.sanitizer.checks_performed > 0
