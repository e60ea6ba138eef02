"""Content-addressed key scheme tests."""

import dataclasses
import hashlib
import json
import re

import pytest

from repro.core.goldens import HASHES_PATH
from repro.faults.schedule import FaultSchedule
from repro.faults.watchdog import WatchdogConfig
from repro.runstore import Job, RunOptions, keys
from repro.runstore.keys import canonical_json, job_key, physics_fingerprint

from .fakes import scenario


DEFAULTS = RunOptions().to_canonical()


@pytest.fixture
def fresh_fingerprint():
    """Recompute the cached fingerprint inside the test and again after it."""
    physics_fingerprint.cache_clear()
    yield
    physics_fingerprint.cache_clear()


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
    keys_seen = {job_key(sc, DEFAULTS) for sc in [base] + variants}
    assert len(keys_seen) == len(variants) + 1


def test_key_sensitive_to_options_and_version(monkeypatch):
    sc = scenario(1)
    base = job_key(sc, DEFAULTS)
    assert job_key(sc, {"record_drop_times": False}) != base
    # A job with default options hashes exactly the default canonical form.
    assert Job(sc).key() == base
    assert DEFAULTS == {"record_drop_times": True, "convergence_check": False}
    # Other physics, other key.
    monkeypatch.setattr(keys, "physics_fingerprint", lambda: "0" * 64)
    assert job_key(sc, DEFAULTS) != base


def test_canonical_json_is_stable_under_dict_order():
    assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})


def test_key_matches_documented_construction():
    sc = scenario(3)
    doc = {
        "options": {"record_drop_times": True, "convergence_check": False},
        "physics": physics_fingerprint(),
        "scenario": dataclasses.asdict(sc),
    }
    expected = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    assert Job(sc).key() == expected


def test_canonical_json_is_valid_compact_json():
    text = canonical_json(dataclasses.asdict(scenario(4)))
    assert json.loads(text)["name"] == "s4"
    assert ": " not in text and ", " not in text


def test_key_scheme_is_pinned(monkeypatch):
    """Literal keys under a fixed fingerprint: any drift in the scheme
    would orphan every stored result, including the committed benchmark
    seeds. A corpus regeneration moves the fingerprint, not these."""
    monkeypatch.setattr(keys, "physics_fingerprint", lambda: "pinned-physics")
    sc = scenario(1)
    assert Job(sc).key() == (
        "6614c5926e391cea8ee0954aa490c4761adbdc953281f1f9a5494d331033d793"
    )
    guarded = RunOptions(watchdog=WatchdogConfig(stall_budget=6.0), max_events=10_000)
    assert Job(sc, guarded).key() == (
        "6e0e35a23b83de8f7849d94e25cb2b35428aa294c2d79eba46d05e5dce789e2c"
    )
    blackout = FaultSchedule.from_spec("blackout", sc.duration).events
    assert Job(sc.with_overrides(faults=blackout)).key() == (
        "9f3b181d991531bbd7eadfcffb584bf829f892f2e38c0a9e3249866e627e0868"
    )


def test_fingerprint_is_the_canonical_corpus_hash():
    with open(HASHES_PATH, encoding="utf-8") as fh:
        corpus = json.load(fh)
    expected = hashlib.sha256(canonical_json(corpus).encode("ascii")).hexdigest()
    assert physics_fingerprint() == expected


def test_regenerated_corpus_rekeys_jobs(tmp_path, monkeypatch, fresh_fingerprint):
    """A corpus whose event count moved re-keys every job by itself."""
    sc = scenario(1)
    before = Job(sc).key()
    with open(HASHES_PATH, encoding="utf-8") as fh:
        corpus = json.load(fh)
    entry = next(iter(corpus["scenarios"].values()))
    entry["events"] += 1
    moved = tmp_path / "hashes.json"
    moved.write_text(json.dumps(corpus), encoding="utf-8")
    monkeypatch.setattr(keys, "HASHES_PATH", str(moved))
    physics_fingerprint.cache_clear()
    assert Job(sc).key() != before


def test_missing_corpus_raises_and_names_it(tmp_path, monkeypatch, fresh_fingerprint):
    missing = str(tmp_path / "hashes.json")
    monkeypatch.setattr(keys, "HASHES_PATH", missing)
    with pytest.raises(FileNotFoundError, match=re.escape(missing)):
        physics_fingerprint()
