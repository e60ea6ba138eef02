"""Tests for the dumbbell builder."""

import random

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.sim.engine import Simulator
from repro.sim.netem import NetemDelay
from repro.sim.queue import DropTailQueue, REDQueue
from repro.sim.topology import FlowSpec, build_dumbbell
from repro.tcp.cca.newreno import NewReno
from repro.units import mbps


def test_build_wires_one_pair_per_flow(sim):
    specs = [FlowSpec(NewReno()) for _ in range(3)]
    d = build_dumbbell(sim, specs, bottleneck_bw_bps=mbps(10), queue=DropTailQueue(100_000))
    assert len(d.flows) == 3
    ids = [f.flow_id for f in d.flows]
    assert ids == [0, 1, 2]
    for flow in d.flows:
        assert flow.sender.path is d.bottleneck
        reverse = flow.receiver.reverse_path
        assert isinstance(reverse, NetemDelay)
        assert reverse.sink is flow.sender


def test_requires_flows(sim):
    with pytest.raises(ValueError):
        build_dumbbell(sim, [], bottleneck_bw_bps=mbps(10), queue=DropTailQueue(100_000))


def test_non_positive_rtt_rejected(sim):
    for rtt in (0.0, -0.01):
        specs = [FlowSpec(NewReno(), rtt=rtt)]
        with pytest.raises(ValueError):
            build_dumbbell(sim, specs, bottleneck_bw_bps=mbps(10), queue=DropTailQueue(100_000))


def test_minimum_rtt_flow_reverse_path_is_pure_delay(sim):
    """The ACK-path netem element carries the flow's whole base RTT
    and, with no jitter, draws nothing; the bottleneck has no delay of
    its own."""
    spec = FlowSpec(NewReno(), rtt=0.0001)
    d = build_dumbbell(sim, [spec], bottleneck_bw_bps=mbps(10), queue=DropTailQueue(100_000))
    reverse = d.flows[0].receiver.reverse_path
    assert isinstance(reverse, NetemDelay)
    # Exact: the element schedules the base RTT itself.
    assert reverse.delay == spec.rtt  # repro-lint: disable=RPR003
    assert reverse.jitter == 0.0
    assert reverse.sink is d.flows[0].sender


def test_flows_draw_distinct_jitter(sim):
    """Each flow's ACK-path element gets its own RNG: seeded from the
    flow's jitter_seed, or from its flow id when that is unset. Two
    flows never share a jitter sequence unless given the same seed."""
    specs = [
        FlowSpec(NewReno(), jitter=0.002),
        FlowSpec(NewReno(), jitter=0.002),
        FlowSpec(NewReno(), jitter=0.002, jitter_seed=0),
    ]
    d = build_dumbbell(sim, specs, bottleneck_bw_bps=mbps(10), queue=DropTailQueue(100_000))
    draws = [
        [flow.receiver.reverse_path._rng.random() for _ in range(20)]
        for flow in d.flows
    ]
    assert draws[0] != draws[1]
    assert draws[0] == draws[2]  # flow 0's default seed is its id, 0


def test_base_rtt_is_respected(sim):
    """A single unconstrained flow should measure ~its configured RTT."""
    spec = FlowSpec(NewReno(), rtt=0.080)
    d = build_dumbbell(
        sim, [spec], bottleneck_bw_bps=mbps(100), queue=DropTailQueue(1_000_000)
    )
    d.start_all()
    sim.run(until=0.5)
    sender = d.flows[0].sender
    assert sender.rtt.min_rtt == pytest.approx(0.080, rel=0.1)


@pytest.mark.parametrize("rtt_multiplier", [None, 2.0], ids=["clean", "rtt-x2-fault"])
def test_smallest_rtt_sample_is_base_rtt_plus_one_serialisation(sim, rtt_multiplier):
    """The forward propagation rides the ACK path, so the sender's
    timeline must be the one a physical split would give: a lone flow
    on an idle link samples exactly its base RTT plus one packet's
    serialisation. An ``rtt`` fault scales the whole base RTT."""
    rtt, rate = 0.02, 1e9
    d = build_dumbbell(
        sim,
        [FlowSpec(NewReno(), rtt=rtt)],
        bottleneck_bw_bps=rate,
        queue=DropTailQueue(1_000_000_000),
        delayed_ack=False,
    )
    base = rtt
    if rtt_multiplier is not None:
        events = (FaultEvent("rtt", time=0.0, value=rtt_multiplier),)
        FaultInjector(sim, FaultSchedule(events), d, rng=random.Random(0)).arm()
        base = rtt_multiplier * rtt
    d.start_all()
    sim.run(until=1.0)
    sender = d.flows[0].sender
    assert sender.stats.retransmits == 0
    # No queueing: the smallest sample is the sum itself, up to the last
    # bits of the fault's scaled delay (the clean case is exact).
    assert sender.rtt.min_rtt == pytest.approx(base + 1500 * 8 / rate, rel=0, abs=1e-15)


def test_bottleneck_routes_by_flow(sim):
    """The bottleneck hands each packet straight to its own flow's
    receiver: routes[flow_id] is that receiver's bound send."""
    specs = [FlowSpec(NewReno(), rtt=0.02) for _ in range(2)]
    d = build_dumbbell(sim, specs, bottleneck_bw_bps=mbps(10), queue=DropTailQueue(100_000))
    assert d.bottleneck.routes == [flow.receiver.send for flow in d.flows]
    d.start_all()
    sim.run(until=1.0)
    for flow in d.flows:
        assert flow.receiver.received_packets > 0
        assert 0 < flow.sender.snd_una <= flow.receiver.rcv_nxt <= flow.sender.snd_nxt


def test_custom_queue_is_used(sim):
    queue = REDQueue(100_000, random.Random(1))
    d = build_dumbbell(
        sim,
        [FlowSpec(NewReno())],
        bottleneck_bw_bps=mbps(10),
        queue=queue,
    )
    assert d.queue is queue


def test_staggered_starts(sim):
    specs = [
        FlowSpec(NewReno(), start_time=0.0),
        FlowSpec(NewReno(), start_time=0.3),
    ]
    d = build_dumbbell(sim, specs, bottleneck_bw_bps=mbps(10), queue=DropTailQueue(100_000))
    d.start_all()
    sim.run(until=0.1)
    assert d.flows[0].sender.stats.packets_sent > 0
    assert d.flows[1].sender.stats.packets_sent == 0
    sim.run(until=0.6)
    assert d.flows[1].sender.stats.packets_sent > 0


def test_single_flow_saturates_link(sim):
    d = build_dumbbell(
        sim,
        [FlowSpec(NewReno(), rtt=0.02)],
        bottleneck_bw_bps=mbps(10),
        queue=DropTailQueue(50_000),
    )
    d.start_all()
    sim.run(until=5.0)
    goodput = d.flows[0].sender.snd_una * 1448 * 8 / 5.0
    assert goodput > mbps(8), f"goodput only {goodput / 1e6:.1f} Mbps"
