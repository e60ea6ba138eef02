"""Unit tests for the netem impairment element."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.netem import NetemDelay
from repro.sim.packet import Packet


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.times = []

    def send(self, packet):
        self.times.append(self.sim.now)


def test_constant_delay():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.05, sink=sink)
    netem.send(Packet.data(0, 0))
    sim.run()
    assert sink.times == [pytest.approx(0.05)]


def test_jitter_stays_within_bounds():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.05, sink=sink, jitter=0.01, rng=random.Random(2))
    for _ in range(200):
        netem.send(Packet.data(0, 0))
    sim.run()
    assert all(0.04 - 1e-12 <= t <= 0.06 + 1e-12 for t in sink.times)
    assert len(set(round(t, 9) for t in sink.times)) > 50  # actually varies


def test_jitter_draw_matches_random_uniform():
    # The element spells out Random.uniform's arithmetic; a twin RNG
    # drawing through uniform() must give bit-identical delays.
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.05, sink=sink, jitter=0.03, rng=random.Random(7))
    twin = random.Random(7)
    for _ in range(300):
        netem.send(Packet.data(0, 0))
    expected = sorted(0.05 + twin.uniform(-0.03, 0.03) for _ in range(300))
    sim.run()
    assert sink.times == expected


def test_random_loss_rate_approximate():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.01, sink=sink, loss_rate=0.3, rng=random.Random(3))
    n = 2000
    for _ in range(n):
        netem.send(Packet.data(0, 0))
    sim.run()
    delivered = len(sink.times)
    assert netem.dropped_packets == n - delivered
    assert 0.25 < netem.dropped_packets / n < 0.35


def test_zero_loss_by_default():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.01, sink=sink)
    for _ in range(100):
        netem.send(Packet.data(0, 0))
    sim.run()
    assert netem.dropped_packets == 0
    assert len(sink.times) == 100


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        NetemDelay(sim, -0.1)
    with pytest.raises(ValueError):
        NetemDelay(sim, 0.01, jitter=0.02)  # jitter > delay
    with pytest.raises(ValueError):
        NetemDelay(sim, 0.01, loss_rate=1.0)
    with pytest.raises(RuntimeError):
        NetemDelay(sim, 0.01).send(Packet.data(0, 0))


def test_jitter_can_reorder_packets():
    """Large jitter relative to packet spacing must produce reordering."""
    sim = Simulator()

    class Tagger:
        def __init__(self):
            self.seen = []

        def send(self, packet):
            self.seen.append((sim.now, packet.seq))

    tagger = Tagger()
    netem = NetemDelay(sim, 0.05, sink=tagger, jitter=0.04, rng=random.Random(11))
    for seq in range(100):
        sim.schedule_at(seq * 0.001, netem.send, Packet.data(0, seq))
    sim.run()
    arrival_seqs = [seq for _, seq in sorted(tagger.seen)]
    assert sorted(arrival_seqs) == list(range(100))  # nothing lost
    assert arrival_seqs != list(range(100))  # ...but order scrambled


def test_loss_pattern_deterministic_under_fixed_seed():
    def drops(seed):
        sim = Simulator()
        sink = Collector(sim)
        netem = NetemDelay(
            sim, 0.01, sink=sink, loss_rate=0.2, rng=random.Random(seed)
        )
        pattern = []
        for seq in range(500):
            before = netem.dropped_packets
            netem.send(Packet.data(0, seq))
            pattern.append(netem.dropped_packets > before)
        sim.run()
        return pattern

    assert drops(42) == drops(42)
    assert drops(42) != drops(43)


def test_default_rng_instances_are_decorrelated():
    """Two netem elements built without an explicit RNG on the same sim
    must not share a loss/jitter sequence (the old fixed-seed fallback
    made every instance's impairments identical)."""
    sim = Simulator()
    sink_a, sink_b = Collector(sim), Collector(sim)
    netem_a = NetemDelay(sim, 0.01, sink=sink_a, loss_rate=0.3)
    netem_b = NetemDelay(sim, 0.01, sink=sink_b, loss_rate=0.3)
    pattern_a, pattern_b = [], []
    for seq in range(400):
        before = netem_a.dropped_packets
        netem_a.send(Packet.data(0, seq))
        pattern_a.append(netem_a.dropped_packets > before)
        before = netem_b.dropped_packets
        netem_b.send(Packet.data(0, seq))
        pattern_b.append(netem_b.dropped_packets > before)
    sim.run()
    assert pattern_a != pattern_b


def test_default_rng_is_reproducible_across_simulators():
    def pattern():
        sim = Simulator()
        sink = Collector(sim)
        netem = NetemDelay(sim, 0.01, sink=sink, loss_rate=0.3)
        out = []
        for seq in range(300):
            before = netem.dropped_packets
            netem.send(Packet.data(0, seq))
            out.append(netem.dropped_packets > before)
        sim.run()
        return out

    assert pattern() == pattern()


def test_set_delay_changes_delivery_time_and_validates():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.05, sink=sink)
    netem.set_delay(0.2)
    netem.send(Packet.data(0, 0))
    sim.run()
    assert sink.times == [pytest.approx(0.2)]
    with pytest.raises(ValueError):
        netem.set_delay(-0.1)
    with pytest.raises(ValueError):
        netem.set_delay(0.01, jitter=0.02)  # jitter > delay


def test_set_delay_clamps_inherited_jitter():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.05, sink=sink, jitter=0.03, rng=random.Random(5))
    netem.set_delay(0.01)  # old jitter would exceed the new delay
    assert netem.jitter <= netem.delay
    for _ in range(50):
        netem.send(Packet.data(0, 0))
    sim.run()
    assert all(t >= 0.0 for t in sink.times)
