"""Picklable stand-in run functions for scheduler tests.

These live in an importable module (not a test file) so that
``ProcessPoolExecutor`` workers can unpickle them regardless of the
start method.
"""

from __future__ import annotations

import os
import signal
import time

from repro.core.scenarios import FlowGroup, Scenario
from repro.units import mbps

#: Environment variable naming the directory for crash-once flag files.
FLAG_DIR_ENV = "REPRO_TEST_FLAG_DIR"


def scenario(i: int, name: str | None = None) -> Scenario:
    return Scenario(
        name=name or f"s{i}",
        bottleneck_bw_bps=mbps(10),
        buffer_bytes=100_000,
        groups=(FlowGroup("newreno", 1, 0.02),),
        duration=2.0,
        warmup=0.5,
        stagger_max=0.0,
        seed=i,
    )


def quick_run(scenario, convergence_check=False):
    """Cheap deterministic payload; no simulation."""
    return {"name": scenario.name, "seed": scenario.seed}


def fail_if_called(scenario, **kwargs):
    """Sentinel for hit-path tests: executing it means the cache missed."""
    raise AssertionError(f"run_fn called for {scenario.name}; expected a cache hit")


def error_for_odd_seed(scenario, **kwargs):
    """Deterministic failure for odd seeds — must never be retried."""
    if scenario.seed % 2 == 1:
        raise ValueError(f"boom for {scenario.name}")
    return {"name": scenario.name, "seed": scenario.seed}


def crash_once(scenario, **kwargs):
    """SIGKILL the worker the first time each scenario is attempted.

    Tracks attempts through flag files in ``$REPRO_TEST_FLAG_DIR`` so a
    retried job succeeds on its second try.
    """
    flag = os.path.join(os.environ[FLAG_DIR_ENV], scenario.name + ".crashed")
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return {"name": scenario.name, "recovered": True}


#: Environment variable naming the run-store root for crash_for_s1.
STORE_DIR_ENV = "REPRO_TEST_STORE_DIR"


def crash_for_s1(scenario, **kwargs):
    """SIGKILL the worker on every attempt of scenario ``s1``; else succeed.

    When ``$REPRO_TEST_STORE_DIR`` is set, ``s1`` defers its crash until
    another job's result object has landed in the store. A dying worker
    breaks the whole pool, and the scheduler (by design) charges every
    in-flight job one attempt for the breakage — so without this
    synchronisation an innocent concurrent job can repeatedly lose the
    race, burn its retry budget as collateral damage, and flake any test
    asserting that only ``s1`` fails.
    """
    if scenario.name == "s1":
        store_root = os.environ.get(STORE_DIR_ENV)
        if store_root:
            objects = os.path.join(store_root, "objects")
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    if any(n.endswith(".pkl") for n in os.listdir(objects)):
                        break
                except OSError:
                    pass
                time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    return {"name": scenario.name}


def sleep_for_s1(scenario, **kwargs):
    """Scenario ``s1`` sleeps past any test timeout; others return at once."""
    if scenario.name == "s1":
        time.sleep(30.0)
    return {"name": scenario.name}
