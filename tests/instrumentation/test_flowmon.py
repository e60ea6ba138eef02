"""Tests for the measurement window.

``run_experiment`` runs warm-up to just before the cut, opens the
window there and runs on: an event due exactly at the cut falls inside
the window, and one due just before it falls outside.
"""

import math

import pytest

from repro.instrumentation.flowmon import FlowMonitor
from repro.obs.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.queue import DropTailQueue
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe
from tests.packets import make_packet


def measure(sim, monitor, cut, end):
    """Open ``monitor``'s window at ``cut`` as ``run_experiment`` does,
    run to ``end`` and close it."""
    sim.run(until=math.nextafter(cut, -math.inf))
    monitor.open_window(cut)
    sim.run(until=end)
    monitor.close_window()


def first_event_time(kind, **pipe):
    """When a sender on ``make_pipe(**pipe)`` first emits cwnd ``kind``."""
    sim = Simulator()
    sender, _, _ = make_pipe(sim, NewReno(), **pipe)
    bus = EventBus()
    bus.bind_sender(sender)
    times = []
    bus.subscribe("cwnd", lambda now, fid, k, cwnd: times.append(now) if k == kind else None)
    sender.start()
    sim.run(until=30.0)
    return times[0]


SENDER_EVENTS = {
    # cwnd kind: (the count it moves, make_pipe arguments)
    "ack": ("delivered_packets", dict(total_packets=1)),
    "loss_event": ("halvings", dict(total_packets=300, drop_indices={40})),
    "rto": ("rtos", dict(total_packets=10, drop_indices={9})),
}


@pytest.mark.parametrize("kind", sorted(SENDER_EVENTS))
@pytest.mark.parametrize("at_cut", [True, False], ids=["at-cut", "before-cut"])
def test_sender_event_at_the_cut_is_inside(kind, at_cut):
    count, pipe = SENDER_EVENTS[kind]
    when = first_event_time(kind, **pipe)
    sim = Simulator()
    sender, _, _ = make_pipe(sim, NewReno(), **pipe)
    monitor = FlowMonitor(sim, [sender], DropTailQueue(1500))
    sender.start()
    # The event is due exactly at the cut, or at the instant before it.
    measure(sim, monitor, when if at_cut else math.nextafter(when, math.inf), 30.0)
    baseline = {"delivered_packets": pipe["total_packets"], "halvings": 1, "rtos": 1}
    inside = baseline[count] if at_cut else baseline[count] - 1
    assert monitor.counts(0)[count] == inside


@pytest.mark.parametrize("at_cut", [True, False], ids=["at-cut", "before-cut"])
def test_queue_arrival_and_drop_at_the_cut_are_inside(sim, at_cut):
    sender, _, _ = make_pipe(sim, NewReno())
    queue = DropTailQueue(1500)  # room for one packet: the second drops
    monitor = FlowMonitor(sim, [sender], queue)
    for seq in range(2):
        sim.schedule_at(5.0, queue.offer, 5.0, make_packet(0, seq))
    measure(sim, monitor, 5.0 if at_cut else math.nextafter(5.0, math.inf), 6.0)
    counts = monitor.counts(0)
    assert (counts["queue_arrivals"], counts["queue_drops"]) == ((1, 1) if at_cut else (0, 0))
    assert (queue.enqueued_packets, queue.dropped_packets) == (1, 1)


def test_goodput_over_window(sim):
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=100)
    mon = FlowMonitor(sim, [sender], DropTailQueue(1500))
    sender.start()
    sim.run(until=0.05)
    mon.open_window(0.05)
    start_una = sender.snd_una
    sim.run(until=2.05)
    mon.close_window()
    assert 0 < mon.counts(0)["delivered_packets"] == sender.snd_una - start_una < 100
    assert mon.duration == pytest.approx(2.0)


def test_window_required(sim):
    sender, _, _ = make_pipe(sim, NewReno())
    mon = FlowMonitor(sim, [sender], DropTailQueue(1500))
    with pytest.raises(RuntimeError):
        mon.counts(0)
    mon.open_window(0.0)
    with pytest.raises(RuntimeError):
        mon.counts(0)
    with pytest.raises(RuntimeError):
        mon.duration


def test_window_closed_before_it_starts_is_empty(sim):
    # A run truncated during warm-up opens its window at the cut and
    # closes it at the truncation time.
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=20)
    mon = FlowMonitor(sim, [sender], DropTailQueue(1500))
    sender.start()
    sim.run(until=1.0)
    mon.open_window(5.0)
    mon.close_window()
    assert mon.duration == 0.0
    assert set(mon.counts(0).values()) == {0}


def test_aggregate_and_per_flow(sim):
    s1, _, _ = make_pipe(sim, NewReno(), total_packets=50)
    s2, _, _ = make_pipe(sim, NewReno(), total_packets=80)
    s2.flow_id = 1
    mon = FlowMonitor(sim, [s1, s2], DropTailQueue(1500))
    mon.open_window(0.0)
    s1.start()
    s2.start()
    sim.run(until=5.0)
    mon.close_window()
    assert [mon.counts(0)["delivered_packets"], mon.counts(1)["delivered_packets"]] == [50, 80]
