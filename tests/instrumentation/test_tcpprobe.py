"""Tests for the tcpprobe-equivalent cwnd probe."""

import pytest

from repro.instrumentation.flowmon import FlowMonitor
from repro.instrumentation.tcpprobe import CwndProbe
from repro.faults.watchdog import SimWatchdog, WatchdogConfig
from repro.obs import EventBus
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe


def test_counts_halvings_and_rtos_separately():
    probe = CwndProbe()
    probe.on_event(1.0, "loss_event", 10.0)
    probe.on_event(2.0, "rto", 1.0)
    probe.on_event(3.0, "recovery_exit", 5.0)
    assert probe.halvings == 1
    assert probe.rtos == 1
    assert probe.recovery_exits == 1
    assert probe.congestion_events == 2


def test_warmup_cut_excludes_early_events():
    probe = CwndProbe(start_time=5.0)
    probe.on_event(1.0, "loss_event", 10.0)
    probe.on_event(6.0, "loss_event", 5.0)
    assert probe.halvings == 1


def test_samples_recorded_only_when_enabled():
    lean = CwndProbe()
    lean.on_event(1.0, "ack", 10.0)
    assert lean.samples == []
    fat = CwndProbe(record_samples=True)
    fat.on_event(1.0, "ack", 10.0)
    assert fat.samples == [(1.0, "ack", 10.0)]


def test_last_cwnd_tracks_even_during_warmup():
    probe = CwndProbe(start_time=5.0)
    probe.on_event(1.0, "ack", 12.5)
    assert probe.last_cwnd == 12.5


def test_attach_to_live_sender(sim):
    sender, _, _ = make_pipe(
        sim, NewReno(), total_packets=300, drop_indices={40}
    )
    bus = EventBus()
    bus.bind_sender(sender)
    probe = CwndProbe(record_samples=True)
    probe.subscribe(bus, sender.flow_id)
    sender.start()
    sim.run(until=20.0)
    assert sender.completed
    assert probe.halvings == 1 == sender.stats.halvings
    assert probe.congestion_events == sender.stats.congestion_events
    assert sum(kind == "ack" for _, kind, _ in probe.samples) == sender.stats.acks_received


def test_attach_never_clobbers(sim):
    # Two probes on one flow both see every event: subscribing never
    # displaces an existing observer.
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=300, drop_indices={40})
    bus = EventBus()
    bus.bind_sender(sender)
    first, second = CwndProbe(record_samples=True), CwndProbe(record_samples=True)
    first.subscribe(bus, 0)
    second.subscribe(bus, 0)
    sender.start()
    sim.run(until=20.0)
    assert first.samples and first.samples == second.samples


def test_single_slot_assignment_raises_instead_of_clobbering(sim):
    # The sender's one forwarder slot belongs to the first bus bound to
    # it; a second bind raises rather than silently replacing it.
    sender, _, _ = make_pipe(sim, NewReno())
    bus = EventBus()
    bus.bind_sender(sender)
    forwarder = sender.forwarder
    with pytest.raises(RuntimeError):
        bus.bind_sender(sender)
    assert sender.forwarder is forwarder


def test_subscribe_is_single_use(sim):
    bus = EventBus()
    probe = CwndProbe()
    probe.subscribe(bus, 0)
    with pytest.raises(RuntimeError):
        probe.subscribe(bus, 0)


def _run_with_drops(sim, observers):
    """One deterministic lossy flow; `observers(sender, bus)` wires
    instrumentation before the run starts."""
    sender, _, _ = make_pipe(
        sim, NewReno(), total_packets=400, drop_indices={40, 120, 250}
    )
    bus = EventBus()
    bus.bind_sender(sender)
    extras = observers(sender, bus)
    sender.start()
    sim.run(until=30.0)
    assert sender.completed
    return sender, extras


def test_three_subscribers_coexist_with_identical_counts():
    # A cwnd probe, the stall watchdog and an ad-hoc sampler all watch
    # ONE sender, and the probe's halving counts match the sender's own
    # counters and an unobserved baseline run.
    from repro.sim.engine import Simulator

    baseline_sim = Simulator()
    baseline_sender, _, _ = make_pipe(
        baseline_sim, NewReno(), total_packets=400,
        drop_indices={40, 120, 250},
    )
    baseline_sender.start()
    baseline_sim.run(until=30.0)
    assert baseline_sender.completed
    assert baseline_sender.stats.congestion_events > 0

    sim = Simulator()
    sampled = {"acks": 0, "cwnd": []}

    def wire(sender, bus):
        probe = CwndProbe()
        probe.subscribe(bus, sender.flow_id)
        monitor = FlowMonitor(sim, [sender])
        dog = SimWatchdog(sim, monitor, [0.0], config=WatchdogConfig(stall_budget=5.0))
        dog.arm()

        def sample(now, fid, kind, cwnd):
            if kind == "ack":
                sampled["acks"] += 1
            sampled["cwnd"].append(cwnd)

        bus.subscribe("cwnd", sample)
        return probe, dog

    sender, (probe, dog) = _run_with_drops(sim, wire)

    # All three observers saw the run...
    assert sampled["acks"] == sender.stats.acks_received > 0
    assert sampled["cwnd"]
    assert dog.checks > 0 and not dog.aborted
    # ...and the probe's counts are the sender's and the baseline's.
    assert probe.halvings == sender.stats.halvings == baseline_sender.stats.halvings
    assert probe.rtos == sender.stats.rtos == baseline_sender.stats.rtos
    assert probe.congestion_events == sender.stats.congestion_events
    # The simulation itself was untouched by observation.
    assert sender.snd_una == baseline_sender.snd_una
    assert sender.stats.congestion_events == baseline_sender.stats.congestion_events
