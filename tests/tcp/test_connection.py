"""End-to-end tests for the TCP sender/receiver machinery.

These use the perfect/lossy pipe from conftest (no bandwidth limit) so
timing and loss are fully controlled.
"""

import pytest

from repro.obs import EventBus
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe
from tests.packets import make_packet


class TestBasicTransfer:
    def test_finite_transfer_completes(self, sim):
        sender, receiver, _ = make_pipe(sim, NewReno(), total_packets=50)
        done = []
        sender.completion_listener = lambda s: done.append(sim.now)
        sender.start()
        sim.run(until=10.0)
        assert sender.completed
        assert done and done[0] > 0
        assert receiver.rcv_nxt == 50
        assert sender.snd_una == 50

    def test_no_loss_means_no_retransmits(self, sim):
        sender, _, _ = make_pipe(sim, NewReno(), total_packets=200)
        sender.start()
        sim.run(until=10.0)
        assert sender.stats.retransmits == 0
        assert sender.stats.rto_events == 0
        assert sender.stats.loss_recovery_events == 0

    def test_initial_window_respected(self, sim):
        sender, _, _ = make_pipe(sim, NewReno(), total_packets=1000)
        sender.start()
        # Before any ACK returns (RTT = 20 ms), exactly IW packets are out.
        sim.run(until=0.015)
        assert sender.stats.packets_sent == 10

    def test_slow_start_doubles_per_rtt(self, sim):
        sender, _, _ = make_pipe(sim, NewReno(), total_packets=10_000)
        sender.start()
        sim.run(until=0.021)  # just after first window of ACKs
        assert 15 <= sender.cca.cwnd <= 25

    def test_rtt_measured(self, sim):
        sender, _, _ = make_pipe(sim, NewReno(), total_packets=100, one_way_delay=0.05)
        sender.start()
        sim.run(until=5.0)
        assert sender.rtt.srtt == pytest.approx(0.1, rel=0.1)

    def test_cannot_start_twice(self, sim):
        sender, _, _ = make_pipe(sim, NewReno())
        sender.start()
        with pytest.raises(RuntimeError):
            sender.start()

    def test_delayed_start(self, sim):
        sender, _, _ = make_pipe(sim, NewReno(), total_packets=10)
        sender.start(at=1.0)
        sim.run(until=0.5)
        assert sender.stats.packets_sent == 0
        sim.run(until=2.0)
        assert sender.completed


class TestLossRecovery:
    def test_single_loss_triggers_fast_recovery(self, sim):
        # Drop the 3rd transmission; SACKs from later packets mark it.
        sender, receiver, wire = make_pipe(
            sim, NewReno(), total_packets=60, drop_indices={2}
        )
        sender.start()
        sim.run(until=10.0)
        assert sender.completed
        assert receiver.rcv_nxt == 60
        assert sender.stats.retransmits == 1
        assert sender.stats.loss_recovery_events == 1
        assert sender.stats.rto_events == 0

    def test_burst_loss_single_recovery_event(self, sim):
        # Drop five consecutive packets out of a large window: one
        # recovery event, five retransmits (the Mathis-p distinction).
        sender, receiver, _ = make_pipe(
            sim, NewReno(), total_packets=200, drop_indices={20, 21, 22, 23, 24}
        )
        sender.start()
        sim.run(until=10.0)
        assert sender.completed
        assert sender.stats.retransmits == 5
        assert sender.stats.loss_recovery_events == 1

    def test_separate_windows_separate_events(self, sim):
        sender, _, _ = make_pipe(
            sim, NewReno(), total_packets=2000, drop_indices={30, 800}
        )
        sender.start()
        sim.run(until=20.0)
        assert sender.completed
        assert sender.stats.loss_recovery_events == 2

    def test_lost_retransmission_recovered_by_rto(self, sim):
        # Drop packet 5 and also its retransmission: only the RTO can save it.
        sender, receiver, wire = make_pipe(
            sim, NewReno(), total_packets=30, drop_indices={5, 30}
        )
        sender.start()
        sim.run(until=20.0)
        assert sender.completed
        assert receiver.rcv_nxt == 30
        assert sender.stats.rto_events >= 1

    def test_tail_loss_recovered_by_rto(self, sim):
        # The very last packet is dropped: no later SACKs, so RTO fires.
        sender, receiver, _ = make_pipe(
            sim, NewReno(), total_packets=10, drop_indices={9}
        )
        sender.start()
        sim.run(until=20.0)
        assert sender.completed
        assert sender.stats.rto_events == 1

    def test_cwnd_halved_once_per_event(self, sim):
        sender, _, _ = make_pipe(
            sim, NewReno(), total_packets=4000, drop_indices={100, 101, 102}
        )
        events = []
        bus = EventBus()
        bus.bind_sender(sender)
        bus.subscribe("cwnd", lambda now, fid, kind, cwnd: (
            events.append((kind, cwnd)) if kind != "ack" else None
        ))
        sender.start()
        sim.run(until=30.0)
        halvings = [e for e in events if e[0] == "loss_event"]
        assert len(halvings) == 1

    def test_karn_no_rtt_sample_from_retransmission(self, sim):
        sender, _, _ = make_pipe(
            sim, NewReno(), total_packets=50, drop_indices={5}, one_way_delay=0.05
        )
        sender.start()
        sim.run(until=20.0)
        # All RTT samples must be ~the true RTT; a retransmission-based
        # sample would come out near zero or doubled.
        assert sender.rtt.min_rtt == pytest.approx(0.1, rel=0.15)


class TestAccounting:
    def test_pipe_conservation_invariants(self, sim):
        sender, _, _ = make_pipe(
            sim, NewReno(), total_packets=500, drop_indices={10, 40, 41, 90}
        )
        sender.start()
        checks = []

        def audit():
            checks.append(
                (
                    sender.in_flight >= 0,
                    sender.sacked_out >= 0,
                    sender.lost_out >= 0,
                    sender.retrans_out >= 0,
                )
            )
            if not sender.completed:
                sim.schedule(0.005, audit)

        sim.schedule(0.005, audit)
        sim.run(until=20.0)
        assert sender.completed
        assert all(all(c) for c in checks)
        # Terminal state: nothing outstanding.
        assert sender.in_flight == 0
        assert sender.sacked_out == 0
        assert sender.lost_out == 0
        assert sender.retrans_out == 0

    def test_goodput_counts_unique_packets(self, sim):
        sender, receiver, _ = make_pipe(
            sim, NewReno(), total_packets=100, drop_indices={5, 6}
        )
        sender.start()
        sim.run(until=20.0)
        assert sender.snd_una == 100
        assert sender.stats.packets_sent == 102  # 100 + 2 retransmits
        assert receiver.received_packets >= 100

    def test_acks_counted(self, sim):
        sender, receiver, _ = make_pipe(sim, NewReno(), total_packets=100)
        sender.start()
        sim.run(until=10.0)
        assert sender.stats.acks_received == receiver.acks_sent

    def test_sender_rejects_data_packet(self, sim):
        sender, _, _ = make_pipe(sim, NewReno())
        with pytest.raises(ValueError):
            sender.send(make_packet(0, 0))


class TestPacing:
    def test_paced_sender_spreads_transmissions(self, sim):
        class PacedReno(NewReno):
            @property
            def pacing_rate(self):
                return 1_500 * 8 * 100.0  # 100 packets per second

        sender, _, wire = make_pipe(sim, PacedReno(), total_packets=1000)
        times = []

        class SpySink:
            """Records each transmission's time, then forwards it on."""

            def send(self, packet):
                times.append(sim.now)
                wire.send(packet)

        sender.path = SpySink()
        sender.start()
        sim.run(until=0.2)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Pacing gap = 10 ms; everything after the first packet is paced.
        assert all(g >= 0.0099 for g in gaps[1:])
