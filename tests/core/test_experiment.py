"""Tests for the experiment runner (small, fast scenarios)."""

import pytest

from repro.core.experiment import run_experiment
from repro.core.scenarios import FlowGroup, Scenario
from repro.units import mbps


def tiny_scenario(**kw):
    defaults = dict(
        name="tiny",
        bottleneck_bw_bps=mbps(10),
        buffer_bytes=100_000,
        groups=(FlowGroup("newreno", 2, 0.02),),
        duration=4.0,
        warmup=1.0,
        stagger_max=0.5,
        seed=7,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_runs_and_measures(sim=None):
    result = run_experiment(tiny_scenario())
    assert result.measured_duration == pytest.approx(3.0)
    assert len(result.flows) == 2
    assert result.aggregate_goodput_bps > mbps(8)
    assert 0.9 < result.utilization < 1.1


def test_deterministic_given_seed():
    a = run_experiment(tiny_scenario())
    b = run_experiment(tiny_scenario())
    assert [f.goodput_bps for f in a.flows] == [f.goodput_bps for f in b.flows]
    assert a.queue_drops == b.queue_drops


def test_seed_changes_outcome():
    a = run_experiment(tiny_scenario(seed=1))
    b = run_experiment(tiny_scenario(seed=2))
    assert [f.goodput_bps for f in a.flows] != [f.goodput_bps for f in b.flows]


def test_flow_results_carry_cca_names():
    sc = tiny_scenario(
        groups=(FlowGroup("newreno", 1, 0.02), FlowGroup("cubic", 1, 0.02))
    )
    result = run_experiment(sc)
    assert sorted(f.cca for f in result.flows) == ["cubic", "newreno"]


def test_mixed_rtts_measured():
    sc = tiny_scenario(
        groups=(FlowGroup("newreno", 1, 0.01), FlowGroup("newreno", 1, 0.08)),
        duration=5.0,
    )
    result = run_experiment(sc)
    rtts = sorted(f.measured_rtt for f in result.flows)
    assert rtts[0] < rtts[1]


def test_drop_times_recording_toggle():
    sc = tiny_scenario(buffer_bytes=20_000)  # small buffer -> drops
    with_times = run_experiment(sc, record_drop_times=True)
    without = run_experiment(sc, record_drop_times=False)
    assert with_times.queue_drops > 0
    assert len(with_times.drop_times) == with_times.queue_drops
    assert without.drop_times == []
    assert without.queue_drops == with_times.queue_drops


def test_warmup_excluded_from_counters():
    """All warm-up drops/arrivals are excluded from the measured window."""
    sc = tiny_scenario(buffer_bytes=20_000, warmup=2.0, duration=5.0)
    result = run_experiment(sc)
    assert all(t >= 2.0 for t in result.drop_times)


def test_warmup_boundary_events_are_measured():
    """A buffer shrink due exactly at the warm-up cut is inside the window.

    ``sim.run(until=warmup)`` executes events due at exactly ``warmup``,
    so a counter snapshot taken after it would miss all of these drops;
    the counters must test ``now >= warmup`` themselves.
    """
    from repro.core.scenarios import edge_scale
    from repro.faults import FaultSchedule

    sc = edge_scale(flows=10, cca="newreno", duration=3.0, warmup=1.5, seed=7)
    sc = sc.with_overrides(
        faults=FaultSchedule.from_spec("buffer@1.5+0.5=0.05", 3.0).events
    )
    result = run_experiment(sc)
    assert result.queue_drops == 1835
    assert len(result.drop_times) == 1835
    assert set(result.drop_times) == {1.5}
    assert result.events_processed == 58050


def test_bare_run_binds_no_forwarders(monkeypatch):
    """Without bus=, no sender or queue gets an event-bus forwarder."""
    from repro.core import experiment

    built = []
    real_build = experiment.build_dumbbell

    def capture(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiment, "build_dumbbell", capture)
    run_experiment(tiny_scenario())
    (dumbbell,) = built
    assert dumbbell.queue.forwarder is None
    assert all(flow.sender.forwarder is None for flow in dumbbell.flows)


def test_convergence_check_stops_early():
    sc = tiny_scenario(duration=20.0, warmup=1.0)
    # AIMD sawtooth keeps a small link's rate fluctuating a few percent,
    # so use a 5% band (the paper's 1% is for 20-minute windows).
    eager = run_experiment(sc, convergence_check=True, convergence_tolerance=0.05)
    assert eager.measured_duration < 19.0
    assert eager.aggregate_goodput_bps > mbps(8)


def test_convergence_check_runs_full_when_unstable():
    sc = tiny_scenario(duration=6.0, warmup=1.0)
    result = run_experiment(
        sc, convergence_check=True, convergence_tolerance=1e-9
    )
    assert result.measured_duration == pytest.approx(5.0)


def test_unknown_cca_rejected():
    sc = tiny_scenario(groups=(FlowGroup("warpdrive", 1),))
    with pytest.raises(ValueError):
        run_experiment(sc)


def test_red_queue_option():
    sc = tiny_scenario(use_red_queue=True, duration=3.0)
    result = run_experiment(sc)
    assert result.aggregate_goodput_bps > 0


def test_bbr_flows_get_distinct_rngs():
    sc = tiny_scenario(groups=(FlowGroup("bbr", 2, 0.02),), duration=5.0)
    result = run_experiment(sc)
    assert all(f.goodput_bps > 0 for f in result.flows)


def _faulted_with_watchdog():
    from repro.faults import FaultEvent, WatchdogConfig

    sc = tiny_scenario(duration=60.0).with_overrides(
        faults=(FaultEvent("link_down", time=2.0),)
    )
    result = run_experiment(sc, watchdog=WatchdogConfig(stall_budget=4.0))
    assert result.health is not None and not result.health.ok
    return result


def _with_bus():
    from repro.obs.bus import EventBus

    bus = EventBus()
    drops = []
    bus.subscribe("drop", lambda now, packet: drops.append(now))
    bus.subscribe("cwnd", lambda now, flow_id, kind, cwnd: None)
    result = run_experiment(tiny_scenario(buffer_bytes=20_000), bus=bus)
    assert drops
    return result


def _with_profiler():
    from repro.obs.profiler import SimProfiler

    profiler = SimProfiler()
    result = run_experiment(tiny_scenario(), profiler=profiler)
    assert profiler.events == result.events_processed
    return result


def _budget_exhausted():
    from repro.sim.engine import SimulationError

    try:
        run_experiment(tiny_scenario(), max_events=2_000)
    except SimulationError:
        return None
    raise AssertionError("the event budget did not trip")


_LIFETIME_RUNS = {
    "newreno": lambda: run_experiment(tiny_scenario()),
    "bbr-vs-cubic": lambda: run_experiment(
        tiny_scenario(groups=(FlowGroup("bbr", 2, 0.02), FlowGroup("cubic", 2, 0.02)))
    ),
    "bbr2": lambda: run_experiment(tiny_scenario(groups=(FlowGroup("bbr2", 2, 0.02),))),
    "red": lambda: run_experiment(tiny_scenario(use_red_queue=True, duration=3.0)),
    "faulted-watchdog": _faulted_with_watchdog,
    "convergence": lambda: run_experiment(
        tiny_scenario(duration=8.0), convergence_check=True, convergence_tolerance=0.05
    ),
    "bus": _with_bus,
    "profiler": _with_profiler,
    "budget-raises": _budget_exhausted,
}


def _world_counts():
    """Live instances of each simulated-world type, by type name."""
    import collections
    import gc

    from repro.sim.link import Link
    from repro.sim.netem import NetemDelay
    from repro.sim.packet import Packet
    from repro.sim.queue import Queue
    from repro.tcp.connection import PacketMeta, TcpReceiver, TcpSender

    world = (TcpSender, TcpReceiver, Link, Queue, NetemDelay, Packet, PacketMeta)
    by_type = collections.Counter(type(obj) for obj in gc.get_objects())
    return {
        cls.__name__: n for cls, n in by_type.items() if issubclass(cls, world) and n
    }


@pytest.mark.parametrize("case", sorted(_LIFETIME_RUNS))
def test_world_is_freed_without_the_collector(case):
    """Every run leaves its world a tree, so reference counting alone
    frees it once the result is dropped: no sender, receiver, link,
    queue, netem element, packet or packet record outlives the run.
    (Under REPRO_SANITIZE=1 a Simulator/SimSanitizer pair stays in a
    cycle, which holds none of these.)"""
    import gc

    gc.collect()
    gc.disable()
    try:
        before = _world_counts()
        result = _LIFETIME_RUNS[case]()
        del result
        after = _world_counts()
    finally:
        gc.enable()
    assert after == before
