"""Cache-key derivation: canonical JSON of a job → sha256.

Key scheme (the contract every stored result is addressed by)
-------------------------------------------------------------

A *job* is a :class:`~repro.core.scenarios.Scenario` plus the
``run_experiment`` options that affect the produced result. Its key is::

    key = sha256(canonical_json({
        "options":  {"convergence_check": ..., "record_drop_times": ...},
        "scenario": dataclasses.asdict(scenario),
        "version":  CACHE_VERSION,
    })).hexdigest()                      # 64 lowercase hex chars

``canonical_json`` is ``json.dumps(obj, sort_keys=True,
separators=(",", ":"), ensure_ascii=True)``. The encoding is canonical
because:

- keys are sorted recursively, so dict insertion order is irrelevant;
- separators carry no whitespace, so formatting is irrelevant;
- floats serialise via ``repr`` (shortest round-trip form since
  Python 3.1), so the same float always produces the same text;
- tuples and lists both serialise as JSON arrays, so dataclass field
  containers can change between the two without invalidating caches.

Any change to scenario *semantics* (new field, different default) or to
simulator physics must bump :data:`CACHE_VERSION`; the version is part
of the hashed payload, so every key changes and stale results become
unreachable (``repro cache gc`` then deletes them).

Version history:

- v1-v7 — the legacy scheme: ``md5(f"v{N}|{scenario!r}")``, written by
  ``benchmarks/common.py`` as flat ``<md5>.pkl`` files. Fragile: any
  cosmetic change to ``Scenario.__repr__`` silently invalidated the
  cache, and adding a field with a default churned every key.
- v8 — same simulator physics as v7; keys moved to the canonical-JSON
  sha256 scheme above. The legacy pickles were found byte-corrupt and
  dropped, so no migration path remains.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping

from ..core.scenarios import Scenario

#: Cache epoch. Bump when simulator physics or the key scheme change so
#: previously stored results can never be returned for a new-physics run.
CACHE_VERSION = 8


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for ``obj`` (see module docstring)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def scenario_to_canonical(scenario: Scenario) -> Dict[str, Any]:
    """A scenario as the plain dict that gets hashed (and displayed).

    Key stability: ``Scenario.faults`` was added after v8 shipped. An
    empty schedule leaves the simulation identical to a pre-fault
    scenario, so it is omitted from the canonical form — every legacy v8
    key stays valid without a version bump, while any non-empty schedule
    (serialised event list) hashes into the key as usual.
    """
    data = dataclasses.asdict(scenario)
    if not data.get("faults"):
        data.pop("faults", None)
    return data


def job_key(
    scenario: Scenario,
    options: Mapping[str, Any],
    version: int = CACHE_VERSION,
) -> str:
    """The content address for one (scenario, options, version) job.

    ``options`` is the canonical form of the job's run options
    (:meth:`repro.runstore.scheduler.RunOptions.to_canonical`).
    """
    payload = {
        "options": dict(options),
        "scenario": scenario_to_canonical(scenario),
        "version": version,
    }
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()

