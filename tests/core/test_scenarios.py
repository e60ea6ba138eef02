"""Tests for scenario definitions and presets."""

import pickle

import pytest

from repro.core.scenarios import FlowGroup, Scenario, core_scale, edge_scale
from repro.units import bdp_bytes, gbps, mbps, megabytes


class TestFlowGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowGroup("bbr", 0)
        with pytest.raises(ValueError):
            FlowGroup("bbr", 1, rtt=0.0)

    def test_frozen(self):
        g = FlowGroup("bbr", 1)
        with pytest.raises(Exception):
            g.count = 2


class TestScenario:
    def base(self, **kw):
        defaults = dict(
            name="t",
            bottleneck_bw_bps=mbps(10),
            buffer_bytes=100_000,
            groups=(FlowGroup("newreno", 2),),
        )
        defaults.update(kw)
        return Scenario(**defaults)

    def test_total_flows(self):
        sc = self.base(groups=(FlowGroup("bbr", 3), FlowGroup("cubic", 4)))
        assert sc.total_flows == 7

    def test_with_overrides(self):
        sc = self.base()
        sc2 = sc.with_overrides(seed=99)
        assert sc2.seed == 99 and sc.seed == 1
        assert sc2.name == sc.name

    def test_validation(self):
        with pytest.raises(ValueError):
            self.base(bottleneck_bw_bps=0)
        with pytest.raises(ValueError):
            self.base(buffer_bytes=0)
        with pytest.raises(ValueError):
            self.base(groups=())
        with pytest.raises(ValueError):
            self.base(warmup=40.0, duration=30.0)
        with pytest.raises(ValueError):
            self.base(stagger_max=-1.0)
        with pytest.raises(ValueError):
            self.base(ack_jitter_fraction=1.0)

    def test_picklable(self):
        sc = self.base()
        assert pickle.loads(pickle.dumps(sc)) == sc


class TestPresets:
    def test_edge_scale_matches_paper(self):
        sc = edge_scale(flows=30)
        assert sc.bottleneck_bw_bps == mbps(100)
        assert sc.buffer_bytes == megabytes(3)
        assert sc.total_flows == 30
        assert sc.groups[0].cca == "newreno"

    def test_core_scale_full_matches_paper(self):
        sc = core_scale(flows=5000, scale=1)
        assert sc.bottleneck_bw_bps == gbps(10)
        assert sc.total_flows == 5000
        # 1 BDP at 200 ms of 10 Gbps = 250 MB (the paper rounds to 375 MB
        # for its hardware; we use the exact rule-of-thumb value).
        assert sc.buffer_bytes == bdp_bytes(gbps(10), 0.2)

    def test_core_scale_scaling_preserves_per_flow_share(self):
        full = core_scale(flows=5000, scale=1)
        scaled = core_scale(flows=5000, scale=50)
        assert scaled.total_flows == 100
        per_flow_full = full.bottleneck_bw_bps / full.total_flows
        per_flow_scaled = scaled.bottleneck_bw_bps / scaled.total_flows
        assert per_flow_full == pytest.approx(per_flow_scaled)
        # The buffer stays the same number of BDPs.
        assert full.buffer_bytes / full.bottleneck_bw_bps == pytest.approx(
            scaled.buffer_bytes / scaled.bottleneck_bw_bps
        )

    def test_core_scale_validation(self):
        with pytest.raises(ValueError):
            core_scale(flows=1000, scale=0)
        with pytest.raises(ValueError):
            core_scale(flows=1001, scale=50)

    def test_competition_replaces_groups(self):
        base = core_scale(flows=1000, scale=50)
        sc = base.with_overrides(
            groups=(FlowGroup("bbr", 10), FlowGroup("cubic", 10)), name="mix"
        )
        assert sc.name == "mix"
        assert sc.total_flows == 20
        assert sc.bottleneck_bw_bps == base.bottleneck_bw_bps
