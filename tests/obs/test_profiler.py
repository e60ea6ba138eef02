"""Tests for the simulator profiler, including its determinism contract."""

import pickle

from repro.core.experiment import run_experiment
from repro.core.scenarios import FlowGroup, Scenario
from repro.obs.profiler import SimProfiler, handler_name
from repro.sim.engine import Simulator
from repro.units import mbps


def tiny_scenario(**kw):
    defaults = dict(
        name="tiny-profiled",
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


def test_handler_name_prefers_qualname():
    def local_handler():
        pass

    assert "local_handler" in handler_name(local_handler)

    class Nameless:
        pass

    # Instances carry no __qualname__; the label falls back to the type.
    assert handler_name(Nameless()) == "Nameless"


def test_profiler_counts_engine_events():
    sim = Simulator()
    profiler = SimProfiler().install(sim)
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 5:
            sim.schedule(0.1, tick)

    sim.schedule(0.1, tick)
    sim.run()
    assert len(ticks) == 5
    assert profiler.events == 5
    (profile,) = profiler.handlers()
    assert profile.count == 5
    assert "tick" in profile.name
    assert profile.wall_seconds >= 0.0


def test_report_renders_and_truncates():
    sim = Simulator()
    profiler = SimProfiler().install(sim)

    def a():
        pass

    def b():
        pass

    sim.schedule(0.1, a)
    sim.schedule(0.2, b)
    sim.run()
    report = profiler.report(top=1)
    assert "profile: 2 events" in report
    assert "1 more handler" in report
    full = profiler.report()
    assert "a" in full and "b" in full


def test_profiled_run_is_byte_identical():
    # The acceptance bar for the whole observability layer: profiling
    # is observation-only, so the pickled ExperimentResult must match
    # an unprofiled run bit for bit.
    plain = run_experiment(tiny_scenario())
    profiler = SimProfiler()
    profiled = run_experiment(tiny_scenario(), profiler=profiler)
    assert profiler.events > 0
    assert pickle.dumps(plain) == pickle.dumps(profiled)
