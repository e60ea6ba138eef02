"""Golden-run regression suite.

Re-runs the eight canonical scenarios and asserts their results are
byte-identical to the committed corpus (``hashes.json``, regenerated
only deliberately via ``tools/regen_golden.py``). This is the gate that
makes hot-path optimization safe: any change to event structure, float
arithmetic order, RNG draw order or measurement accounting flips a
digest here.

The result digest covers the physics; the event count is asserted on
its own against the corpus's ``events``. On mismatch the failure
message says which of the two moved, and distinguishes *drift* (an
intentional change — regenerate the corpus) from *breakage* (a refactor
that silently changed behaviour).
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os

import pytest

from repro.core.goldens import (
    GOLDEN_FORMAT,
    HASHES_PATH,
    TRACED_SCENARIOS,
    drift_report,
    golden_scenarios,
    result_digest,
    run_golden,
    trace_digest,
)
from repro.tcp.cca import CCA_REGISTRY

TRACES_DIR = os.path.join(os.path.dirname(HASHES_PATH), "traces")

with open(HASHES_PATH, encoding="utf-8") as _fh:
    CORPUS = json.load(_fh)

SCENARIOS = golden_scenarios()


def test_corpus_format_and_coverage():
    """The committed corpus matches the in-code scenario set exactly,
    and its eight scenarios run every registered CCA, BBRv2 included,
    queue drops behind BBR flows, and drops at a RED queue."""
    assert CORPUS["format"] == GOLDEN_FORMAT
    assert set(CORPUS["scenarios"]) == set(SCENARIOS), (
        "golden corpus out of sync with goldens.golden_scenarios(); "
        "run tools/regen_golden.py"
    )
    assert len(SCENARIOS) == 8
    ccas = {group.cca for sc in SCENARIOS.values() for group in sc.groups}
    assert ccas == set(CCA_REGISTRY)
    probe_rtt = SCENARIOS["golden-bbr-probe-rtt"]
    assert {"bbr", "bbr2"} <= {group.cca for group in probe_rtt.groups}
    # Past the 10 s RTprop filter, so both BBR versions enter PROBE_RTT.
    assert probe_rtt.duration > 10.0
    assert CORPUS["scenarios"]["golden-bbr-probe-rtt"]["queue_drops"] > 0
    # The one RED run: no other golden leaves the drop-tail default.
    assert [sc.name for sc in SCENARIOS.values() if sc.use_red_queue] == ["golden-red"]
    assert CORPUS["scenarios"]["golden-red"]["queue_drops"] > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_run(name):
    expected = CORPUS["scenarios"][name]
    traced = name in TRACED_SCENARIOS
    result, digest, text = run_golden(SCENARIOS[name], with_trace=traced)

    assert digest == expected["result_sha256"], (
        f"{name}: {drift_report(expected, result)}"
    )
    # The digest leaves the event count out, so it is pinned on its own.
    # For an event-only change the report says to re-pin events= and to
    # say so in CHANGES.md.
    assert result.events_processed == expected["events"], (
        f"{name}: {drift_report(expected, result)}"
    )

    if traced:
        assert text is not None
        assert trace_digest(text) == expected["trace_sha256"], (
            f"{name}: result digest matches but the event *trace* diverged — "
            "per-event timing/ordering changed in a way the aggregate result "
            "does not expose. For a performance refactor this is breakage; "
            "for an intentional behaviour change, regenerate with "
            "tools/regen_golden.py."
        )
        # The committed compressed artifact decompresses to exactly the
        # trace this run produced (guards artifact/hash desync).
        path = os.path.join(TRACES_DIR, f"{name}.jsonl.gz")
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            committed = fh.read()
        assert committed == text, (
            f"{name}: committed trace artifact does not match hashes.json; "
            "rerun tools/regen_golden.py so both regenerate together"
        )


def test_result_digest_leaves_out_events_processed_only():
    """A copy of a golden result with another event count keeps its
    digest; a copy with one flow's halvings changed does not."""
    result, digest, _ = run_golden(SCENARIOS["golden-edge-10"])
    recounted = dataclasses.replace(result, events_processed=result.events_processed + 1)
    assert result_digest(recounted) == digest
    flows = list(result.flows)
    flows[0] = dataclasses.replace(flows[0], halvings=flows[0].halvings + 1)
    assert result_digest(dataclasses.replace(result, flows=flows)) != digest
