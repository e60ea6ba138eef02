"""Tests for per-flow goodput accounting."""

import pytest

from repro.instrumentation.flowmon import FlowMonitor
from repro.tcp.cca.newreno import NewReno
from tests.conftest import make_pipe


def test_goodput_over_window(sim):
    sender, _, _ = make_pipe(sim, NewReno(), total_packets=100)
    mon = FlowMonitor(sim, [sender])
    sender.start()
    sim.run(until=0.5)
    mon.open_window()
    start_una = sender.snd_una
    sim.run(until=2.5)
    mon.close_window()
    delivered = sender.snd_una - start_una
    assert mon.delivered_packets(0) == delivered
    assert mon.goodput_bps(0) == pytest.approx(delivered * 1448 * 8 / 2.0)


def test_window_required(sim):
    sender, _, _ = make_pipe(sim, NewReno())
    mon = FlowMonitor(sim, [sender])
    with pytest.raises(RuntimeError):
        mon.goodput_bps(0)
    mon.open_window()
    with pytest.raises(RuntimeError):
        mon.goodput_bps(0)


def test_zero_duration_window_rejected(sim):
    sender, _, _ = make_pipe(sim, NewReno())
    mon = FlowMonitor(sim, [sender])
    mon.open_window()
    mon.close_window()
    with pytest.raises(RuntimeError):
        mon.goodput_bps(0)


def test_aggregate_and_per_flow(sim):
    s1, _, _ = make_pipe(sim, NewReno(), total_packets=50)
    s2, _, _ = make_pipe(sim, NewReno(), total_packets=80)
    s2.flow_id = 1
    mon = FlowMonitor(sim, [s1, s2])
    mon.open_window()
    s1.start()
    s2.start()
    sim.run(until=5.0)
    mon.close_window()
    assert [mon.delivered_packets(0), mon.delivered_packets(1)] == [50, 80]
    total = mon.goodput_bps(0) + mon.goodput_bps(1)
    assert total == pytest.approx((50 + 80) * 1448 * 8 / 5.0)
