"""Content-addressed key scheme tests."""

import dataclasses
import hashlib
import json

from repro.faults.schedule import FaultSchedule
from repro.faults.watchdog import WatchdogConfig
from repro.runstore import Job, RunOptions
from repro.runstore.keys import (
    CACHE_VERSION,
    canonical_json,
    job_key,
    scenario_to_canonical,
)

from .fakes import scenario


DEFAULTS = RunOptions().to_canonical()


def test_key_is_64_hex_and_deterministic():
    a = job_key(scenario(1), DEFAULTS)
    b = job_key(scenario(1), DEFAULTS)
    assert a == b
    assert len(a) == 64
    assert all(c in "0123456789abcdef" for c in a)


def test_key_sensitive_to_every_scenario_field():
    base = scenario(1)
    variants = [
        dataclasses.replace(base, seed=2),
        dataclasses.replace(base, duration=3.0),
        dataclasses.replace(base, buffer_bytes=200_000),
        dataclasses.replace(base, name="other"),
    ]
    keys = {job_key(sc, DEFAULTS) for sc in [base] + variants}
    assert len(keys) == len(variants) + 1


def test_key_sensitive_to_options_and_version():
    sc = scenario(1)
    base = job_key(sc, DEFAULTS)
    assert job_key(sc, {"record_drop_times": False}) != base
    assert job_key(sc, DEFAULTS, version=CACHE_VERSION + 1) != base
    # A job with default options hashes exactly the default canonical form.
    assert Job(sc).key() == base
    assert DEFAULTS == {"record_drop_times": True, "convergence_check": False}


def test_canonical_json_is_stable_under_dict_order():
    assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})


def test_key_matches_documented_construction():
    sc = scenario(3)
    doc = {
        "options": {"record_drop_times": True, "convergence_check": False},
        "scenario": scenario_to_canonical(sc),
        "version": CACHE_VERSION,
    }
    expected = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    assert Job(sc).key() == expected


def test_canonical_json_is_valid_compact_json():
    text = canonical_json(scenario_to_canonical(scenario(4)))
    assert json.loads(text)["name"] == "s4"
    assert ": " not in text and ", " not in text


def test_key_scheme_is_pinned():
    """Literal keys: any drift would orphan every stored result,
    including the committed benchmark seeds."""
    sc = scenario(1)
    assert Job(sc).key() == (
        "55d8b55f9815932c12e008b387219b68cf2ffe4ca367ebac870d29784263ea6f"
    )
    guarded = RunOptions(watchdog=WatchdogConfig(stall_budget=6.0), max_events=10_000)
    assert Job(sc, guarded).key() == (
        "4063d43e0b75d35c1d619e1b3a9e448fe923ebecbe198dd0eaa22e13f1f4ee28"
    )
    blackout = FaultSchedule.from_spec("blackout", sc.duration).events
    assert Job(sc.with_overrides(faults=blackout)).key() == (
        "d51f41af8395a8bd075809b7f4d7f65c715b67578c3e88d5051b9bb48277e844"
    )
