"""Host-independent performance gate: Python calls per simulated event.

Wall time on a shared host drifts by tens of percent; the number of
Python function calls a run makes does not. Each case below profiles
one short run with cProfile and counts the calls to functions defined
under ``src/repro``, divided by the events the engine executed. The
count repeats exactly for a given tree, and it does not depend on the
CPython version: calls into the standard library and builtins are left
out, and so are comprehension frames (CPython 3.12 inlines list, dict
and set comprehensions; a generator expression's frame count depends on
how it is consumed).

A case fails when its count rises more than :data:`TOLERANCE` above the
pinned budget. An intended rise, or a fall worth locking in, is
re-pinned by editing :data:`BUDGETS` to the value the failure message
prints, with a CHANGES.md entry saying why the hot path's call count
moved. ``perfbench/run.py --trace 1`` breaks the same cost down per
layer.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Callable, Dict

import pytest

import repro
from repro.core.experiment import run_experiment
from repro.core.scenarios import FlowGroup, Scenario, core_scale, edge_scale

SRC_ROOT = os.path.dirname(os.path.realpath(repro.__file__)) + os.sep

#: Frames that are function calls on some CPython versions only.
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

#: Allowed rise over the pinned budget.
TOLERANCE = 0.02


def core_loss() -> Scenario:
    """CoreScale 5000 flows / 50, NewReno, a quarter-BDP buffer, 1 s."""
    base = core_scale(flows=5000, cca="newreno", scale=50, duration=1.0, warmup=0.3, seed=1)
    return base.with_overrides(name="budget-core-loss", buffer_bytes=base.buffer_bytes // 4)


def edge_bbr() -> Scenario:
    """EdgeScale, 10 BBR vs 10 Cubic; the slow-start overshoot overflows
    the 3 MB buffer (about 3,000 drops) and SACK recovery follows."""
    base = edge_scale(flows=20, cca="bbr", duration=1.5, warmup=0.3, seed=1)
    groups = (FlowGroup("bbr", 10, 0.020), FlowGroup("cubic", 10, 0.020))
    return base.with_overrides(name="budget-edge-bbr", groups=groups)


CASES: Dict[str, Callable[[], Scenario]] = {"core-loss": core_loss, "edge-bbr": edge_bbr}

#: Pinned src/repro calls per executed event.
BUDGETS = {"core-loss": 4.7087, "edge-bbr": 4.9326}


def repro_calls_per_event(scenario: Scenario) -> float:
    profiler = cProfile.Profile()
    result = profiler.runcall(run_experiment, scenario)
    calls = sum(
        stat[1]
        for (filename, _line, name), stat in pstats.Stats(profiler).stats.items()
        if name not in COMPREHENSIONS
        and os.path.realpath(filename).startswith(SRC_ROOT)
    )
    return calls / result.events_processed


@pytest.mark.parametrize("case", sorted(CASES))
def test_calls_per_event_within_budget(case, monkeypatch):
    # The sanitizer adds calls of its own; the budget is for bare runs.
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    measured = repro_calls_per_event(CASES[case]())
    budget = BUDGETS[case]
    assert measured <= budget * (1 + TOLERANCE), (
        f"{case}: {measured:.4f} src/repro calls per event, more than "
        f"{TOLERANCE:.0%} over the pinned budget {budget}. If the extra "
        f"calls are intended, re-pin BUDGETS[{case!r}] = {measured:.4f} in "
        f"tests/test_call_budget.py and justify the change in CHANGES.md."
    )

