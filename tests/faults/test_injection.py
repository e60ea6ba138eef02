"""Integration tests: fault schedules applied to real experiment runs."""

import pickle
import random

import pytest

from repro.core.experiment import run_experiment
from repro.core.scenarios import edge_scale
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    GilbertElliott,
    WatchdogConfig,
)


def tiny(**overrides):
    scenario = edge_scale(flows=3, duration=6.0, warmup=1.0, seed=7)
    return scenario.with_overrides(**overrides) if overrides else scenario


def faulted_run(faults, **kwargs):
    kwargs.setdefault("watchdog", WatchdogConfig(stall_budget=10.0))
    return run_experiment(tiny(faults=faults), **kwargs)


class TestGilbertElliott:
    def test_stationary_loss_rate_approximated(self):
        model = GilbertElliott(
            p_enter=0.05, p_exit=0.25, loss_bad=0.8, rng=random.Random(5)
        )
        packets = 20_000
        drops = sum(model.should_drop(None) for _ in range(packets))
        assert model.packets_seen == packets
        expected = model.stationary_loss_rate
        assert expected == pytest.approx((0.05 / 0.30) * 0.8)
        assert drops / packets == pytest.approx(expected, rel=0.15)

    def test_losses_are_bursty(self):
        """Correlated loss must produce multi-packet bursts far more often
        than an independent Bernoulli channel with the same rate would."""
        model = GilbertElliott(
            p_enter=0.02, p_exit=0.2, loss_bad=1.0, rng=random.Random(9)
        )
        pattern = [model.should_drop(None) for _ in range(20_000)]
        runs = []
        current = 0
        for lost in pattern:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs and sum(runs) / len(runs) > 2.0  # mean burst length
        assert model.bursts == len(runs) + (1 if current else 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_enter=0.0, p_exit=0.5, loss_bad=0.5, rng=random.Random(1))
        with pytest.raises(ValueError):
            GilbertElliott(p_enter=0.5, p_exit=0.5, loss_bad=1.5, rng=random.Random(1))


class TestInjection:
    def test_recovered_blackout_reduces_goodput_but_completes(self):
        clean = run_experiment(tiny())
        faulted = faulted_run((FaultEvent("link_down", time=2.0, duration=1.5),))
        assert faulted.health is not None and faulted.health.ok
        assert faulted.measured_duration == pytest.approx(5.0)
        assert faulted.aggregate_goodput_bps < 0.8 * clean.aggregate_goodput_bps
        descriptions = [entry for _, entry in faulted.health.fault_timeline]
        assert descriptions == ["link down", "link up"]

    def test_bandwidth_dip_and_restore(self):
        clean = run_experiment(tiny())
        faulted = faulted_run((FaultEvent("bandwidth", time=2.0, duration=2.0, value=0.25),))
        assert faulted.health.ok
        assert faulted.aggregate_goodput_bps < clean.aggregate_goodput_bps
        assert [t for t, _ in faulted.health.fault_timeline] == [2.0, 4.0]

    def test_rtt_fault_raises_measured_rtt(self):
        clean = run_experiment(tiny())
        faulted = faulted_run((FaultEvent("rtt", time=1.5, value=8.0),))  # permanent
        assert faulted.health.ok
        clean_rtt = max(f.measured_rtt for f in clean.flows)
        faulted_rtt = max(f.measured_rtt for f in faulted.flows)
        # The netem path carries ~19 ms of the 20 ms base RTT; x8 puts the
        # propagation floor alone above 0.14 s. (Queueing delay *drops*
        # under the fault — less aggressive flows — so comparing against a
        # multiple of the clean sRTT would be meaningless.)
        assert faulted_rtt > 0.14
        assert faulted_rtt > clean_rtt

    def test_burst_loss_causes_retransmits(self):
        clean = run_experiment(tiny())
        faulted = faulted_run(
            (FaultEvent("burst_loss", time=1.5, duration=3.0, value=0.4),)
        )
        assert faulted.health.ok
        assert sum(f.retransmits for f in faulted.flows) > sum(
            f.retransmits for f in clean.flows
        )
        on_entry, off_entry = faulted.health.fault_timeline
        assert "burst loss on" in on_entry[1]
        assert "burst loss off" in off_entry[1]

    def test_buffer_shrink_forces_drops(self):
        faulted = faulted_run((FaultEvent("buffer", time=2.0, duration=2.0, value=0.02),))
        assert faulted.health.ok
        assert faulted.queue_drops > 0

    def test_double_arm_rejected(self):
        from repro.sim.engine import Simulator
        from repro.sim.queue import DropTailQueue
        from repro.sim.topology import FlowSpec, build_dumbbell
        from repro.tcp.cca.newreno import NewReno

        sim = Simulator()
        dumbbell = build_dumbbell(
            sim, [FlowSpec(cca=NewReno(), rtt=0.02)], bottleneck_bw_bps=1e7,
            queue=DropTailQueue(30_000),
        )
        injector = FaultInjector(
            sim,
            FaultSchedule([FaultEvent("link_down", time=1.0)]),
            dumbbell,
            rng=random.Random(1),
        )
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()


class TestDeterminism:
    def test_faulted_runs_are_byte_identical(self):
        faults = (
            FaultEvent("link_down", time=2.0, duration=0.5),
            FaultEvent("burst_loss", time=3.0, duration=1.5, value=0.3),
        )
        first = pickle.dumps(faulted_run(faults))
        second = pickle.dumps(faulted_run(faults))
        assert first == second

    def test_unfaulted_runs_are_byte_identical(self):
        assert pickle.dumps(run_experiment(tiny())) == pickle.dumps(run_experiment(tiny()))

    def test_fault_rng_does_not_perturb_flow_setup(self):
        """Adding faults must not change the flow-level RNG draws: the
        injector derives its RNG from the seed independently, so per-flow
        start times, jitter seeds and CCA RNGs stay identical."""
        clean = run_experiment(tiny())
        faulted = faulted_run((FaultEvent("bandwidth", time=5.5, duration=0.2, value=0.9),))
        # A tiny late fault barely changes throughput; what must match
        # exactly is everything decided before t=0.
        assert [f.base_rtt for f in faulted.flows] == [f.base_rtt for f in clean.flows]
        assert [f.flow_id for f in faulted.flows] == [f.flow_id for f in clean.flows]

    def test_burst_loss_differs_across_seeds(self):
        faults = (FaultEvent("burst_loss", time=1.5, duration=3.0, value=0.4),)
        one = run_experiment(tiny(faults=faults))
        two = run_experiment(tiny(faults=faults).with_overrides(seed=8))
        assert pickle.dumps(one) != pickle.dumps(two)
