"""Unit tests for the netem delay element."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.netem import NetemDelay
from tests.packets import make_packet


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
    netem.send(make_packet(0, 0))
    sim.run()
    assert sink.times == [pytest.approx(0.05)]


def test_jitter_stays_within_bounds():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.05, sink=sink, jitter=0.01, rng=random.Random(2))
    for _ in range(200):
        netem.send(make_packet(0, 0))
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
        netem.send(make_packet(0, 0))
    expected = sorted(0.05 + twin.uniform(-0.03, 0.03) for _ in range(300))
    sim.run()
    assert sink.times == expected


def test_zero_delay_is_synchronous():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.0, sink=sink)
    netem.send(make_packet(0, 1))
    assert sink.times == [0.0]  # delivered without running the loop


def test_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        NetemDelay(sim, -1.0, Collector(sim))


def test_requires_sink():
    # The sink is a required argument: an element is built after the
    # element it forwards to, so it never forwards to nothing.
    with pytest.raises(TypeError):
        NetemDelay(Simulator(), 0.1)


def test_validation():
    sim = Simulator()
    sink = Collector(sim)
    with pytest.raises(ValueError):
        NetemDelay(sim, 0.01, sink, jitter=-0.001)
    with pytest.raises(ValueError):
        NetemDelay(sim, 0.01, sink, jitter=0.02)  # jitter > delay
    # Jitter draws from the caller's RNG only; there is no default seed.
    with pytest.raises(ValueError, match="rng"):
        NetemDelay(sim, 0.01, sink, jitter=0.005)


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
        sim.schedule_at(seq * 0.001, netem.send, make_packet(0, seq))
    sim.run()
    arrival_seqs = [seq for _, seq in sorted(tagger.seen)]
    assert sorted(arrival_seqs) == list(range(100))  # nothing lost
    assert arrival_seqs != list(range(100))  # ...but order scrambled


def test_set_delay_changes_delivery_time_and_validates():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.05, sink=sink)
    netem.set_delay(0.2)
    netem.send(make_packet(0, 0))
    sim.run()
    assert sink.times == [pytest.approx(0.2)]
    with pytest.raises(ValueError):
        netem.set_delay(-0.1)


def test_set_delay_clamps_inherited_jitter():
    sim = Simulator()
    sink = Collector(sim)
    netem = NetemDelay(sim, 0.05, sink=sink, jitter=0.03, rng=random.Random(5))
    netem.set_delay(0.01)  # old jitter would exceed the new delay
    assert netem.jitter <= netem.delay
    for _ in range(50):
        netem.send(make_packet(0, 0))
    sim.run()
    assert all(t >= 0.0 for t in sink.times)
