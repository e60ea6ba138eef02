"""Unit tests for fault events, schedules, the spec grammar and presets."""

import dataclasses
import pickle

import pytest

from repro.core.scenarios import edge_scale
from repro.faults.schedule import (
    DEFAULT_GE_TRANSITIONS,
    FAULT_KINDS,
    PRESETS,
    FaultEvent,
    FaultSchedule,
)
from repro.runstore import Job


class TestFaultEvent:
    def test_valid_kinds(self):
        for kind in ("bandwidth", "rtt", "burst_loss", "buffer"):
            assert FaultEvent(kind, time=1.0, value=0.5).kind in FAULT_KINDS
        assert FaultEvent("link_down", time=1.0).kind == "link_down"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("asteroid", time=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("link_down", time=-1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("link_down", time=1.0, duration=0.0)

    def test_valued_kinds_need_positive_value(self):
        with pytest.raises(ValueError):
            FaultEvent("bandwidth", time=1.0)
        with pytest.raises(ValueError):
            FaultEvent("rtt", time=1.0, value=-2.0)

    def test_burst_loss_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultEvent("burst_loss", time=1.0, value=1.0)
        with pytest.raises(ValueError):
            FaultEvent("burst_loss", time=1.0, value=0.3, params=(0.0, 0.5))
        with pytest.raises(ValueError):
            FaultEvent("burst_loss", time=1.0, value=0.3, params=(0.1,))

    def test_end_time(self):
        assert FaultEvent("link_down", time=2.0).end_time is None
        assert FaultEvent("link_down", time=2.0, duration=3.0).end_time == 5.0

    def test_describe(self):
        assert FaultEvent("link_down", time=8.0, duration=2.0).describe() == "link_down@8+2"
        assert FaultEvent("bandwidth", time=10.0, value=0.25).describe() == "bandwidth@10=0.25"

    def test_picklable(self):
        event = FaultEvent("burst_loss", time=1.0, value=0.3, params=(0.1, 0.5))
        assert pickle.loads(pickle.dumps(event)) == event


class TestFaultSchedule:
    def test_sorted_by_time(self):
        schedule = FaultSchedule([
            FaultEvent("link_down", time=9.0, duration=1.0),
            FaultEvent("bandwidth", time=3.0, duration=1.0, value=0.5),
        ])
        assert [e.time for e in schedule.events] == [3.0, 9.0]
        assert len(schedule) == 2 and bool(schedule)
        assert not FaultSchedule([])

    def test_from_spec_raw_tokens(self):
        schedule = FaultSchedule.from_spec("down@8+2,bw@10+5=0.25,rtt@12+1=4", 30.0)
        kinds = [e.kind for e in schedule.events]
        assert kinds == ["link_down", "bandwidth", "rtt"]
        assert schedule.events[0].end_time == 10.0
        assert schedule.events[1].value == 0.25

    def test_from_spec_gilbert_and_buffer(self):
        schedule = FaultSchedule.from_spec("gilbert@5+10=0.3,buffer@6+3=0.1", 30.0)
        assert [e.kind for e in schedule.events] == ["burst_loss", "buffer"]
        assert schedule.events[0].params in ((), DEFAULT_GE_TRANSITIONS)

    def test_from_spec_permanent_fault(self):
        (event,) = FaultSchedule.from_spec("down@8", 30.0).events
        assert event.duration is None and event.end_time is None

    def test_from_spec_presets_scale_to_duration(self):
        for name in PRESETS:
            schedule = FaultSchedule.from_spec(name, 10.0)
            assert schedule.events
            assert all(e.time < 10.0 for e in schedule.events)
            ended = [e.end_time for e in schedule.events if e.end_time is not None]
            assert all(end <= 10.0 for end in ended)

    def test_from_spec_mixes_presets_and_tokens(self):
        schedule = FaultSchedule.from_spec("blackout,rtt@20+1=4", 30.0)
        assert {e.kind for e in schedule.events} == {"link_down", "rtt"}

    def test_from_spec_errors(self):
        with pytest.raises(ValueError, match="bad fault token"):
            FaultSchedule.from_spec("asteroid@5", 30.0)
        with pytest.raises(ValueError, match="non-numeric"):
            FaultSchedule.from_spec("down@soon", 30.0)
        with pytest.raises(ValueError, match="needs =value"):
            FaultSchedule.from_spec("bw@5+1", 30.0)
        with pytest.raises(ValueError, match="no events"):
            FaultSchedule.from_spec(" , ", 30.0)


class TestScenarioIntegration:
    def test_faults_field_defaults_empty(self):
        assert edge_scale(flows=2).faults == ()

    def test_fault_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            edge_scale(flows=2, duration=10.0).with_overrides(
                faults=(FaultEvent("link_down", time=12.0),)
            )

    def test_non_event_fault_rejected(self):
        with pytest.raises(TypeError):
            edge_scale(flows=2).with_overrides(faults=("down@8",))

    def test_explicit_empty_faults_keep_the_cache_key(self):
        scenario = edge_scale(flows=2, seed=3)
        assert Job(scenario).key() == Job(scenario.with_overrides(faults=())).key()

    def test_faulted_scenario_changes_cache_key(self):
        scenario = edge_scale(flows=2, seed=3, duration=30.0)
        faulted = scenario.with_overrides(
            faults=(FaultEvent("link_down", time=8.0, duration=2.0),)
        )
        assert dataclasses.asdict(faulted)["faults"]
        assert Job(faulted).key() != Job(scenario).key()

    def test_different_fault_values_change_cache_key(self):
        base = edge_scale(flows=2, duration=30.0)
        one = base.with_overrides(faults=(FaultEvent("bandwidth", time=5.0, value=0.5),))
        two = base.with_overrides(faults=(FaultEvent("bandwidth", time=5.0, value=0.25),))
        assert Job(one).key() != Job(two).key()


class TestPresets:
    def test_registry_names(self):
        assert set(PRESETS) == {"blackout", "flap", "rtt-spike", "burst-loss"}

    def test_describe_mentions_every_event(self):
        for preset in PRESETS.values():
            description = preset.describe(30.0)
            assert description
            assert len(description.split(", ")) == len(preset.build(30.0))
