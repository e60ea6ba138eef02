"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator, event_pending
from repro.sim.link import Link
from repro.sim.netem import NetemDelay
from tests.packets import make_packet


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_processed == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, fired.append, "hello")
    sim.run()
    assert fired == ["hello"]
    assert sim.now == 1.5
    assert sim.events_processed == 1


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, 3)
    sim.schedule(1.0, order.append, 1)
    sim.schedule(2.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.5, fired.append, "x")
    sim.run()
    assert sim.now == 2.5 and fired == ["x"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_clock_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0  # clock advanced to the boundary
    sim.run()
    assert fired == [1, 5]


def test_event_at_exactly_until_fires():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_event_helpers():
    sim = Simulator()
    ev = sim.schedule(4.0, lambda: None)
    assert ev[0] == 4.0  # the handle is [time, seq, fn, args]
    assert event_pending(ev)
    sim.run(until=3.0)
    assert event_pending(ev)
    sim.run()
    assert not event_pending(ev)


def test_release_drops_every_pending_event():
    sim = Simulator()
    fired = []
    early = sim.schedule(1.0, fired.append, "early")
    late = sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    sim.release()
    assert not event_pending(early) and not event_pending(late)
    assert late[2] is None  # the handle no longer holds its callback
    sim.run()
    assert fired == ["early"]
    assert sim.now == 2.0


def test_events_scheduled_from_callbacks():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_max_events_safety_valve():
    sim = Simulator()

    def forever():
        sim.schedule(0.1, forever)

    sim.schedule(0.0, forever)
    sim.run(max_events=100)
    assert sim.events_processed == 100


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_clock_does_not_go_backwards():
    sim = Simulator()
    times = []
    for delay in (5.0, 1.0, 3.0, 1.0, 4.0):
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)


def test_stop_ends_run_without_advancing_to_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=10.0)
    assert fired == [1]
    assert sim.now == 1.0  # clock left where the stop happened
    sim.run()  # a later run proceeds normally
    assert fired == [1, 5]


def test_stop_outside_run_does_not_poison_next_run():
    sim = Simulator()
    sim.stop()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.run()
    assert fired == [1]


def test_max_events_budget_is_cumulative_across_runs():
    sim = Simulator()

    def forever():
        sim.schedule(0.1, forever)

    sim.schedule(0.0, forever)
    sim.run(max_events=50)
    sim.run(max_events=100)
    assert sim.events_processed == 100


# ----------------------------------------------------------------------
# Budget/stop boundary semantics (the latent interaction fixed alongside
# the hot-path work): a budget that runs out exactly as the last due
# event executes is a *completed* run, and stop() must never let the
# clock jump to the horizon.
# ----------------------------------------------------------------------


def test_budget_exhausted_exactly_at_drain_is_natural_completion():
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(until=10.0, max_events=3)
    assert fired == [0, 1, 2]
    # Every due event executed; the budget just happened to hit zero at
    # the same moment. That is completion, so the clock advances to the
    # horizon exactly as it would without a budget.
    assert sim.now == 10.0


def test_budget_exhausted_with_due_events_pending_is_truncation():
    sim = Simulator()
    fired = []
    for i in range(4):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(until=10.0, max_events=3)
    assert fired == [0, 1, 2]
    assert sim.now == 3.0  # left at the last executed event
    sim.run(until=10.0)  # the leftover event is still runnable
    assert fired == [0, 1, 2, 3]
    assert sim.now == 10.0


def test_budget_exhausted_with_only_beyond_horizon_events_completes():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 0)
    sim.schedule(50.0, fired.append, 99)
    sim.run(until=10.0, max_events=1)
    assert fired == [0]
    # The only pending event is beyond the horizon, so the run is
    # complete for until=10.0 regardless of the exhausted budget.
    assert sim.now == 10.0


def test_max_events_at_or_below_processed_executes_nothing():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.run(max_events=2)
    assert sim.events_processed == 2
    sim.schedule(1.0, fired.append, 3)
    before = sim.now
    sim.run(max_events=2)  # budget already consumed: a no-op
    assert fired == [1, 2]
    assert sim.now == before
    sim.run(max_events=1)  # below processed: also a no-op
    assert fired == [1, 2]


def test_stop_from_final_handler_does_not_advance_to_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, lambda: (fired.append(2), sim.stop()))
    sim.run(until=10.0)
    assert fired == [1, 2]
    # The heap is drained, but the stop means the caller asked to halt
    # *here*; jumping the clock to the horizon would hide the abort.
    assert sim.now == 2.0


def test_stop_combined_with_exhausted_budget_stays_truncated():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.run(until=10.0, max_events=1)
    assert fired == [1]
    assert sim.now == 1.0


def test_direct_pushes_share_the_sequence_stream():
    """NetemDelay pushes its events onto the heap directly, also for a
    packet a link hands it ahead of the clock; it draws sequence numbers
    from the simulator's one stream, so events due at the same instant
    fire in push order whoever pushed them."""
    sim = Simulator()
    fired = []

    class Tap:
        def __init__(self, tag):
            self.tag = tag

        def send(self, packet):
            fired.append(self.tag)

    # 1000-byte packets: 8000 bits take 0.5 s at 16 kb/s, so every event
    # below lands at exactly t = 0.5.
    # The link hands its packet, departing at 0.5, to a zero-delay
    # element at admission, which pushes it for 0.5 there and then.
    link_netem = NetemDelay(sim, 0.0, sink=Tap("link-finish"))
    finish_link = Link(sim, 16_000, routes=[link_netem.send])
    netem = NetemDelay(sim, 0.5, sink=Tap("netem"))
    relay = NetemDelay(sim, 0.25, sink=Tap("relay"))

    def quarter():
        sim.schedule(0.25, fired.append, "schedule-3")

    # Pushed at t = 0, in this order.
    sim.schedule(0.5, fired.append, "schedule-1")
    finish_link.send(make_packet(0, 0, 1000))
    netem.send(make_packet(0, 1, 1000), 0.0)
    sim.schedule(0.25, quarter)
    sim.schedule(0.25, relay.send, make_packet(0, 2, 1000), 0.25)  # fires after quarter()
    sim.schedule(0.5, fired.append, "schedule-2")
    sim.run()
    assert sim.now == 0.5  # repro-lint: disable=RPR003 -- exact by construction
    # At t = 0.25, quarter() pushes before the relay's netem push.
    assert fired == [
        "schedule-1", "link-finish", "netem", "schedule-2",
        "schedule-3", "relay",
    ]
    assert sim.next_seq() == 9  # eight pushes drew 1..8
