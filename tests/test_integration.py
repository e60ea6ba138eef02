"""Cross-module integration tests.

Small but complete experiments exercising the full stack — topology,
TCP, CCAs, instrumentation, analysis — with invariants that must hold
for any correct packet-conserving transport simulation.
"""

import pytest

from repro import (
    FlowGroup,
    Scenario,
    edge_scale,
    jains_fairness_index,
    run_experiment,
)
from repro.units import mbps


def small(groups, duration=8.0, warmup=2.0, buffer_bytes=150_000, bw=mbps(20), **kw):
    return Scenario(
        name="integration",
        bottleneck_bw_bps=bw,
        buffer_bytes=buffer_bytes,
        groups=groups,
        duration=duration,
        warmup=warmup,
        stagger_max=1.0,
        seed=5,
        **kw,
    )


class TestConservation:
    @pytest.mark.parametrize("cca", ["newreno", "cubic", "bbr"])
    def test_goodput_never_exceeds_capacity(self, cca):
        # Warm-up must outlast slow-start overshoot recovery, else data
        # delivered before the window but cumulatively ACKed inside it
        # inflates measured goodput (the reason the paper cuts 5 min).
        result = run_experiment(small((FlowGroup(cca, 3, 0.02),), duration=14.0, warmup=5.0))
        assert result.utilization <= 1.05  # small window-boundary slack

    def test_per_flow_goodput_sums_to_aggregate(self):
        result = run_experiment(small((FlowGroup("newreno", 4, 0.02),)))
        assert result.aggregate_goodput_bps == pytest.approx(
            sum(f.goodput_bps for f in result.flows)
        )

    def test_drops_attributed_to_flows_sum_to_total(self):
        result = run_experiment(
            small((FlowGroup("newreno", 4, 0.02),), buffer_bytes=30_000)
        )
        assert result.queue_drops > 0
        assert sum(f.queue_drops for f in result.flows) == result.queue_drops

    def test_sent_at_least_delivered(self):
        result = run_experiment(small((FlowGroup("newreno", 3, 0.02),)))
        for f in result.flows:
            assert f.packets_sent >= f.delivered_packets


class TestDynamics:
    def test_loss_based_flows_fill_the_buffer(self):
        result = run_experiment(
            small((FlowGroup("newreno", 4, 0.02),), duration=10.0)
        )
        # A congested drop-tail link must show measurable loss.
        assert result.aggregate_loss_rate > 0

    def test_same_rtt_newreno_converges_toward_fair(self):
        result = run_experiment(
            small((FlowGroup("newreno", 4, 0.02),), duration=40.0, warmup=15.0,
                  buffer_bytes=60_000)
        )
        assert result.jfi() > 0.8

    def test_cubic_beats_reno(self):
        result = run_experiment(
            small(
                (FlowGroup("cubic", 3, 0.02), FlowGroup("newreno", 3, 0.02)),
                duration=60.0,
                warmup=20.0,
            )
        )
        assert result.shares()["cubic"] > 0.5

    def test_rtt_unfairness_for_reno(self):
        """Same-CCA flows with 4x different RTTs: the short-RTT flow wins
        (classic AIMD RTT bias the paper controls for by fixing RTT)."""
        result = run_experiment(
            small(
                (FlowGroup("newreno", 2, 0.01), FlowGroup("newreno", 2, 0.08)),
                duration=40.0,
                warmup=10.0,
                buffer_bytes=60_000,
            )
        )
        short = sum(f.goodput_bps for f in result.flows if f.base_rtt == 0.01)
        long = sum(f.goodput_bps for f in result.flows if f.base_rtt == 0.08)
        assert short > long

    def test_edge_scale_preset_runs_end_to_end(self):
        result = run_experiment(
            edge_scale(flows=4, duration=8.0, warmup=3.0)
        )
        assert result.utilization > 0.85
        assert len(result.flows) == 4

    def test_jfi_of_experiment_matches_direct_computation(self):
        result = run_experiment(small((FlowGroup("newreno", 3, 0.02),)))
        direct = jains_fairness_index([f.goodput_bps for f in result.flows])
        assert result.jfi() == pytest.approx(direct)


class TestHalvingSemantics:
    def test_burst_drops_exceed_congestion_events(self):
        """The heart of the paper's Finding 3: under drop-tail congestion
        the queue drops more packets than flows record window
        reductions."""
        result = run_experiment(
            small((FlowGroup("newreno", 6, 0.02),), duration=20.0, warmup=5.0,
                  buffer_bytes=50_000)
        )
        assert result.queue_drops > 0
        assert result.total_congestion_events > 0
        ratio = result.queue_drops / result.total_congestion_events
        assert ratio >= 1.0
