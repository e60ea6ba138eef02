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
