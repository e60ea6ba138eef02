"""Cache-key derivation: canonical JSON of a job → sha256.

Key scheme (the contract every stored result is addressed by)
-------------------------------------------------------------

A *job* is a :class:`~repro.core.scenarios.Scenario` plus the
``run_experiment`` options that affect the produced result. Its key is::

    key = sha256(canonical_json({
        "options":  {"convergence_check": ...},
        "physics":  physics_fingerprint(),
        "scenario": dataclasses.asdict(scenario),
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

The physics fingerprint is the sha256 of the golden corpus
(``tests/golden/hashes.json``, path owned by
:data:`repro.core.goldens.HASHES_PATH`) in canonical JSON. A change to
simulator physics moves a golden digest or event count, and regenerating
the corpus then re-keys every stored result by itself: results simulated
by older code become unreachable, and ``repro cache gc`` deletes them.
A change to scenario semantics (a new field, a different default) changes
``dataclasses.asdict`` and so the key.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Mapping

from ..core.goldens import HASHES_PATH
from ..core.scenarios import Scenario


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for ``obj`` (see module docstring)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@functools.lru_cache(maxsize=None)
def physics_fingerprint() -> str:
    """sha256 of the golden corpus in canonical JSON, read once per
    process. A missing corpus raises ``FileNotFoundError`` naming it."""
    with open(HASHES_PATH, encoding="utf-8") as fh:
        corpus = json.load(fh)
    return hashlib.sha256(canonical_json(corpus).encode("ascii")).hexdigest()


def job_key(scenario: Scenario, options: Mapping[str, Any]) -> str:
    """The content address for one (scenario, options) job under the
    current physics.

    ``options`` is the canonical form of the job's run options
    (:meth:`repro.runstore.scheduler.RunOptions.to_canonical`).
    """
    payload = {
        "options": dict(options),
        "physics": physics_fingerprint(),
        "scenario": dataclasses.asdict(scenario),
    }
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
