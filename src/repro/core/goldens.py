"""Golden-run corpus: canonical scenarios and byte-exact result hashing.

The hot-path optimization work (DESIGN.md §11) is only safe because the
simulator's results are *byte-identical* before and after: every float,
every counter, every event count. This module defines

- a canonical, lossless serialisation of an
  :class:`~repro.core.results.ExperimentResult` (floats rendered with
  :meth:`float.hex`, keys sorted) and its sha256 digest, which covers
  every physical result but not ``events_processed``: callers that
  check equivalence compare the event count beside the digest;
- the eight canonical golden scenarios (two EdgeScale points, two
  CoreScale quick points, one faulted run, one BBR/NewReno mix, one
  BBRv1/BBRv2/Cubic mix that reaches PROBE_RTT and one run behind a RED
  queue) whose digests are committed under ``tests/golden/hashes.json``;
- :func:`run_golden`, which re-runs one scenario and returns the digest
  plus an optional bounded JSONL trace (the compressed traces committed
  under ``tests/golden/traces/`` are produced from the same rows).

``tools/regen_golden.py`` regenerates the committed corpus;
``tests/golden/test_golden_runs.py`` asserts against it and explains
drift (an intentional physics change — regenerate) versus breakage
(event-structure or numeric divergence introduced by a refactor).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple

from ..faults.schedule import FaultSchedule
from ..obs.bus import EventBus
from ..obs.tracing import TraceRecorder, trace_jsonl
from .experiment import run_experiment
from .results import ExperimentResult
from .scenarios import FlowGroup, Scenario, core_scale, edge_scale

#: Bump when the canonical serialisation itself changes shape (never for
#: physics changes — those regenerate hashes at the same format).
#: Format 2 leaves ``events_processed`` out of the digest; the corpus pins
#: it as its own ``events`` field.
GOLDEN_FORMAT = 2

#: The committed corpus, which the run-store key also hashes (see
#: :func:`repro.runstore.keys.physics_fingerprint`). It is found from
#: this file's place in the source tree, so ``PYTHONPATH=src`` and
#: ``pip install -e .`` read the same file; a copy of the package
#: installed without the tree has no corpus.
HASHES_PATH = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "..", "..", "tests", "golden", "hashes.json",
))

#: Row cap for golden traces: keeps the committed artifacts small while
#: still pinning the exact event-by-event behaviour of the opening
#: seconds of each run (where slow-start, the first loss epoch and the
#: first recovery all happen).
TRACE_MAX_EVENTS = 5000

#: Scenarios whose (bounded) JSONL traces are committed alongside the
#: result hashes.
TRACED_SCENARIOS = ("golden-edge-10", "golden-core-20")


def _canon(obj: Any) -> Any:
    """Recursively convert a value into a canonical JSON-able form.

    Floats are rendered with :meth:`float.hex` — lossless, so two
    results agree on the canonical form iff they agree bit-for-bit.
    ``bool`` is checked before ``int`` (bools are ints in Python).
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"cannot canonicalise {type(obj).__name__}: {obj!r}")


def canonical_result_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Every physical result field that must stay byte-identical,
    canonicalised. ``events_processed`` is left out: how many events
    carry the physics is pinned apart from the physics itself, so a
    change that only alters the event count keeps every digest."""
    return {
        "scenario": _canon(dataclasses.asdict(result.scenario)),
        "flows": [_canon(dataclasses.asdict(f)) for f in result.flows],
        "measured_duration": _canon(result.measured_duration),
        "queue_drops": result.queue_drops,
        "queue_arrivals": result.queue_arrivals,
        "drop_times": _canon(result.drop_times),
        "health": _canon(result.health.to_json()) if result.health else None,
    }


def canonical_result_json(result: ExperimentResult) -> str:
    """The canonical JSON text the golden digest is computed over."""
    return json.dumps(
        canonical_result_dict(result), sort_keys=True, separators=(",", ":")
    )


def result_digest(result: ExperimentResult) -> str:
    """sha256 over the canonical result JSON."""
    return hashlib.sha256(canonical_result_json(result).encode("utf-8")).hexdigest()


def trace_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_scenarios() -> Dict[str, Scenario]:
    """The canonical corpus, keyed by scenario name (insertion-ordered).

    Eight scenarios chosen to cover every hot path the optimization work
    touches: slow start and AIMD steady state (edge), the paper's
    small-window CoreScale regime at its quick-profile scale divisor
    (core, 20 and 100 flows), fault injection with a health record
    (faulted blackout), BBR's pacing/rate-sampling machinery competing
    with a loss-based flow (bbr-mix), BBRv1 and BBRv2 against Cubic
    behind a buffer that overflows, run past the 10 s RTprop filter so
    that both versions enter PROBE_RTT (bbr-probe-rtt), and the
    queue-discipline ablation's RED queue with both early and capacity
    drops (red).
    """
    duration, warmup = 5.0, 1.5
    edge10 = edge_scale(
        flows=10, cca="newreno", duration=duration, warmup=warmup, seed=7
    ).with_overrides(name="golden-edge-10")
    edge50 = edge_scale(
        flows=50, cca="cubic", duration=duration, warmup=warmup, seed=7
    ).with_overrides(name="golden-edge-50")
    core20 = core_scale(
        flows=1000, cca="newreno", scale=50, duration=duration, warmup=warmup, seed=21
    ).with_overrides(name="golden-core-20")
    core100 = core_scale(
        flows=5000, cca="cubic", scale=50, duration=duration, warmup=warmup, seed=21
    ).with_overrides(name="golden-core-100")
    faulted = edge_scale(
        flows=10, cca="newreno", duration=duration, warmup=warmup, seed=13
    ).with_overrides(
        name="golden-faulted",
        faults=FaultSchedule.from_spec("blackout", duration).events,
    )
    bbr_mix = edge_scale(
        flows=10, cca="bbr", duration=duration, warmup=warmup, seed=17
    ).with_overrides(
        name="golden-bbr-mix",
        groups=(FlowGroup("bbr", 5, 0.020), FlowGroup("newreno", 5, 0.020)),
    )
    probe_rtt = edge_scale(
        flows=6, cca="bbr", duration=12.0, warmup=2.0, seed=19
    ).with_overrides(
        name="golden-bbr-probe-rtt",
        buffer_bytes=500_000,
        groups=(
            FlowGroup("bbr", 2, 0.020),
            FlowGroup("bbr2", 2, 0.020),
            FlowGroup("cubic", 2, 0.020),
        ),
    )
    red = edge_scale(
        flows=10, cca="newreno", duration=duration, warmup=warmup, seed=23
    ).with_overrides(name="golden-red", use_red_queue=True, buffer_bytes=500_000)
    return {
        sc.name: sc
        for sc in (edge10, edge50, core20, core100, faulted, bbr_mix, probe_rtt, red)
    }


def run_golden(
    scenario: Scenario, with_trace: bool = False
) -> Tuple[ExperimentResult, str, Optional[str]]:
    """Run one golden scenario; returns (result, digest, trace text).

    The trace (when requested) is recorded through a private event bus —
    observation is result-neutral by contract (the differential tests
    and the CI obs-smoke job both enforce it), so traced and bare golden
    runs share one digest.
    """
    bus: Optional[EventBus] = None
    recorder: Optional[TraceRecorder] = None
    if with_trace:
        bus = EventBus()
        recorder = TraceRecorder(
            bus, max_events=TRACE_MAX_EVENTS, start_time=scenario.warmup
        )
    result = run_experiment(scenario, bus=bus)
    text: Optional[str] = None
    if recorder is not None:
        text = trace_jsonl(recorder, result)
    return result, result_digest(result), text


def drift_report(expected: Dict[str, Any], actual: ExperimentResult) -> str:
    """Explain a golden mismatch: which of the result digest and the event
    count moved, and what each means.

    ``expected`` is one scenario's committed entry from ``hashes.json``
    (``result_sha256``, ``events`` and the ``queue_drops`` fingerprint
    recorded for this diagnosis).
    """
    digest_moved = result_digest(actual) != expected["result_sha256"]
    events_moved = actual.events_processed != expected["events"]
    lines = ["golden mismatch:"]
    if digest_moved:
        lines.append(
            "  - result digest changed: a physical result diverged (a flow "
            "counter, goodput, a drop time or the health record). For a "
            "refactor this is breakage, e.g. reordered float arithmetic, a "
            "changed accumulator or an observer mutating state."
        )
    if events_moved:
        lines.append(
            f"  - events_processed changed: {expected['events']} -> "
            f"{actual.events_processed}; packets or timers are scheduled "
            "differently."
        )
    exp_drops = expected.get("queue_drops")
    if exp_drops is not None and exp_drops != actual.queue_drops:
        lines.append(
            f"  - queue_drops changed: {exp_drops} -> {actual.queue_drops} "
            "(loss pattern diverged)."
        )
    if events_moved and not digest_moved:
        lines.append(
            "  The physics held and only the event count moved. If that is "
            "intended (timer coalescing, fewer pacing events), re-pin "
            "events= with `python tools/regen_golden.py`, leave every "
            "result_sha256 as it is, and say so in CHANGES.md."
        )
    else:
        lines.append(
            "  If this change to the simulation's behaviour is *intentional* "
            "(new physics, a bug fix that changes results), regenerate the "
            "corpus with `python tools/regen_golden.py` and commit the new "
            "hashes/traces, explaining the drift in the commit message. If "
            "you were optimizing or refactoring, this is a regression — the "
            "run is no longer byte-identical."
        )
    return "\n".join(lines)
