"""Watchdog and event-budget tests: dead runs must degrade, not hang."""

import math
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import experiment
from repro.core.experiment import default_event_budget, run_experiment
from repro.core.scenarios import edge_scale
from repro.faults import FaultEvent, SimWatchdog, WatchdogConfig
from repro.runstore import Job, RunOptions, RunStore, run_jobs
from repro.sim.engine import SimulationError, Simulator
from repro.sim.queue import DropTailQueue
from repro.sim.topology import FlowSpec, build_dumbbell
from repro.tcp.cca.newreno import NewReno


def deadlock_scenario(duration=120.0, flows=3, blackout_at=3.0):
    """A blackout that never lifts: every flow ends up retransmitting
    into a dead link until the RTO backoff ceiling, forever."""
    return edge_scale(flows=flows, duration=duration, warmup=1.0, seed=7).with_overrides(
        faults=(FaultEvent("link_down", time=blackout_at),)
    )


#: A run that converges before its duration, with a watchdog that never
#: stalls on its own.
_CONVERGING = edge_scale(flows=2, duration=6.0, warmup=1.0, seed=7)


def _run_converging():
    return run_experiment(
        _CONVERGING,
        convergence_check=True,
        convergence_tolerance=0.05,
        watchdog=WatchdogConfig(stall_budget=100.0),
    )


_BOUNDARIES = []


def _convergence_boundaries():
    """The healthy run's convergence ticks and its convergence stop."""
    if not _BOUNDARIES:
        samplers = []
        ticks = []
        sample = experiment._ConvergenceSampler.sample

        def recording(sampler):
            samplers.append(sampler)
            ticks.append(sampler.sim.now)
            sample(sampler)

        with mock.patch.object(experiment._ConvergenceSampler, "sample", recording):
            assert _run_converging().health.ok
        stop = samplers[-1].stop_at
        # The last tick is the one that found convergence.
        assert ticks[-1] == stop < _CONVERGING.duration  # repro-lint: disable=RPR003
        _BOUNDARIES.extend([ticks[:-1], stop])
    return _BOUNDARIES


class TestWatchdogConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(stall_budget=0.0)

    def test_interval_defaults_to_quarter_budget(self):
        assert WatchdogConfig(stall_budget=8.0).interval == 2.0


class TestStallDetection:
    def test_permanent_blackout_returns_partial_result(self):
        result = run_experiment(
            deadlock_scenario(), watchdog=WatchdogConfig(stall_budget=8.0)
        )
        health = result.health
        assert health is not None and not health.ok
        assert health.reason == "stall"
        assert health.truncated_at is not None
        assert health.truncated_at < 120.0
        assert health.stalled_flows == [0, 1, 2]
        assert result.measured_duration < 119.0
        assert result.measured_duration == pytest.approx(health.truncated_at - 1.0)
        # whatever was delivered before the blackout is still reported
        assert any(f.delivered_packets > 0 for f in result.flows)

    def test_partial_results_are_deterministic(self):
        config = WatchdogConfig(stall_budget=8.0)
        first = run_experiment(deadlock_scenario(), watchdog=config)
        second = run_experiment(deadlock_scenario(), watchdog=config)
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_abort_during_warmup_reports_zero_goodput(self):
        scenario = edge_scale(flows=2, duration=200.0, warmup=100.0, seed=7).with_overrides(
            faults=(FaultEvent("link_down", time=2.0),)
        )
        result = run_experiment(scenario, watchdog=WatchdogConfig(stall_budget=8.0))
        assert not result.health.ok
        assert result.measured_duration == 0.0
        assert all(f.goodput_bps == 0.0 for f in result.flows)
        assert result.jfi() == 1.0  # all-zero allocations, defined as fair

    @pytest.mark.parametrize(
        "warmup, duration, abort_at",
        [(3.0, 20.0, 3.0), (1.0, 2.5, 2.5)],
        ids=["abort-at-warmup", "abort-at-duration"],
    )
    def test_abort_exactly_at_a_phase_target_truncates(self, warmup, duration, abort_at):
        """Two flows stall from t=0.2 and the 2 s watchdog, checking every
        0.5 s, aborts at t=2.5 or 3.0: exactly on the warm-up cut or the
        duration. The clock then stands at the target, and the run must
        still read as truncated, not healthy."""
        scenario = edge_scale(
            flows=2, duration=duration, warmup=warmup, seed=7
        ).with_overrides(faults=(FaultEvent("link_down", time=0.2),))
        result = run_experiment(scenario, watchdog=WatchdogConfig(stall_budget=2.0))
        health = result.health
        assert (health.ok, health.reason) == (False, "stall")
        assert health.stalled_flows == [0, 1]
        # Exact: the abort lands on the target itself.
        assert health.truncated_at == abort_at  # repro-lint: disable=RPR003
        assert result.measured_duration == abort_at - warmup  # repro-lint: disable=RPR003

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(where=st.sampled_from(["before-cut", "tick", "stop"]), index=st.integers(0, 10**6))
    def test_abort_at_any_boundary_truncates(self, where, index):
        """An abort landing on any of the run's boundaries reads as
        truncated, at that instant: just before the warm-up cut (the
        end of the warm-up run), on a convergence tick (the end of a
        slice) or on the convergence stop itself."""
        ticks, stop = _convergence_boundaries()
        target = {
            "before-cut": math.nextafter(_CONVERGING.warmup, -math.inf),
            "tick": ticks[index % len(ticks)],
            "stop": stop,
        }[where]
        arm = SimWatchdog.arm

        def arm_with_abort(dog):
            arm(dog)
            dog.sim.schedule_at(target, dog.abort, "stall")

        with mock.patch.object(SimWatchdog, "arm", arm_with_abort):
            result = _run_converging()
        health = result.health
        assert (health.ok, health.reason) == (False, "stall")
        assert health.truncated_at == target  # repro-lint: disable=RPR003

    def test_healthy_run_reports_no_stalls(self):
        scenario = edge_scale(flows=2, duration=6.0, warmup=1.0, seed=7)
        result = run_experiment(scenario, watchdog=WatchdogConfig(stall_budget=3.0))
        assert result.health is not None and result.health.ok
        assert result.health.stalled_flows == []
        assert result.health.truncated_at is None

    def test_completed_flows_do_not_count_as_stalled(self):
        sim = Simulator()
        dumbbell = build_dumbbell(
            sim,
            [FlowSpec(cca=NewReno(), rtt=0.02, total_packets=10)],
            bottleneck_bw_bps=1e7,
            queue=DropTailQueue(30_000),
        )
        senders = [f.sender for f in dumbbell.flows]
        dog = SimWatchdog(sim, senders, [0.0], WatchdogConfig(stall_budget=1.0))
        dog.arm()
        dumbbell.start_all()
        sim.run(until=30.0)
        assert not dog.aborted  # flow finished; a finished flow never stalls
        assert dog.checks > 5

    def test_watchdog_validation(self):
        sim = Simulator()
        dumbbell = build_dumbbell(
            sim,
            [FlowSpec(cca=NewReno(), rtt=0.02)],
            bottleneck_bw_bps=1e7,
            queue=DropTailQueue(30_000),
        )
        senders = [f.sender for f in dumbbell.flows]
        with pytest.raises(ValueError):
            SimWatchdog(sim, senders, [0.0, 1.0])  # start-time count mismatch
        dog = SimWatchdog(sim, senders, [0.0])
        dog.arm()
        with pytest.raises(RuntimeError):
            dog.arm()


class TestEventBudget:
    def test_default_budget_scales_with_scenario(self):
        small = edge_scale(flows=2, duration=5.0, warmup=1.0)
        large = edge_scale(flows=50, duration=60.0, warmup=1.0)
        assert default_event_budget(large) > default_event_budget(small)

    def test_generous_for_real_runs(self):
        scenario = edge_scale(flows=3, duration=6.0, warmup=1.0, seed=7)
        result = run_experiment(scenario)
        assert result.events_processed < 0.1 * default_event_budget(scenario)

    def test_exhaustion_without_watchdog_raises_with_escape_hatches(self):
        scenario = edge_scale(flows=2, duration=6.0, warmup=1.0, seed=7)
        with pytest.raises(SimulationError) as excinfo:
            run_experiment(scenario, max_events=2_000)
        message = str(excinfo.value)
        assert "max_events" in message and "watchdog" in message

    def test_exhaustion_with_watchdog_degrades(self):
        scenario = edge_scale(flows=2, duration=6.0, warmup=1.0, seed=7)
        result = run_experiment(
            scenario, watchdog=WatchdogConfig(stall_budget=3.0), max_events=20_000
        )
        assert not result.health.ok
        assert result.health.reason == "event_budget"
        assert result.events_processed >= 20_000

    def test_invalid_budget_rejected(self):
        scenario = edge_scale(flows=2, duration=6.0, warmup=1.0, seed=7)
        with pytest.raises(ValueError):
            run_experiment(scenario, max_events=0)


class TestSchedulerIntegration:
    def test_degraded_run_persists_and_warm_run_hits(self, tmp_path):
        job = Job(
            deadlock_scenario(duration=60.0, flows=2),
            RunOptions(watchdog=WatchdogConfig(stall_budget=6.0)),
        )
        store = RunStore(str(tmp_path / "store"))
        cold = run_jobs([job], store=store, workers=1)
        assert cold.stats.misses == 1 and cold.stats.degraded == 1
        assert not cold.results[0].health.ok
        warm = run_jobs([job], store=store, workers=1)
        assert warm.stats.hits == 1 and warm.stats.misses == 0
        assert pickle.dumps(warm.results[0]) == pickle.dumps(cold.results[0])

    def test_degraded_event_emitted_with_reason(self, tmp_path):
        events = []
        job = Job(
            deadlock_scenario(duration=60.0, flows=2),
            RunOptions(watchdog=WatchdogConfig(stall_budget=6.0)),
        )
        run_jobs([job], store=RunStore(str(tmp_path / "store")), workers=1,
                 progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds == ["start", "degraded"]
        assert events[-1].error == "stall"
        assert events[-1].payload.health.stalled_flows

    def test_watchdog_options_change_cache_key(self):
        scenario = deadlock_scenario(duration=60.0, flows=2)
        plain = Job(scenario, RunOptions())
        guarded = Job(scenario, RunOptions(watchdog=WatchdogConfig(stall_budget=6.0)))
        budgeted = Job(scenario, RunOptions(max_events=10_000))
        assert plain.key() != guarded.key()
        assert plain.key() != budgeted.key()

    def test_default_options_canonical_form(self):
        """RunOptions() with the watchdog and budget unset hashes only
        the convergence flag."""
        assert RunOptions().to_canonical() == {"convergence_check": False}
