#!/usr/bin/env python
"""Regenerate the golden-run corpus (tests/golden/).

Re-runs every canonical golden scenario, rewrites
``tests/golden/hashes.json`` and the committed compressed traces, and
prints what changed relative to the previous corpus. Run this ONLY when
a simulation-behaviour change is intentional; a pure performance
refactor must leave every hash untouched (that is the point of the
corpus).

The run-store key hashes this corpus, so a regeneration re-keys every
stored result: afterwards, refresh the committed benchmark objects with
a cold ``REPRO_BENCH_PROFILE=smoke python benchmarks/findings.py``,
then ``repro cache gc``, ``git rm`` of the old objects under
``benchmarks/_cache/objects`` and ``git add -f`` of the new ones.

Usage::

    PYTHONPATH=src python tools/regen_golden.py [--check]

``--check`` regenerates nothing: it re-runs the scenarios and exits
non-zero if any result digest or event count differs from the committed
corpus (same comparison the tier-1 golden tests make, usable standalone
in CI). Each line says which of the two moved: a change that keeps the
physics but not the event count shows ``EVENTS CHANGED`` alone.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.goldens import (  # noqa: E402  (path bootstrap above)
    GOLDEN_FORMAT,
    HASHES_PATH,
    TRACED_SCENARIOS,
    drift_report,
    golden_scenarios,
    run_golden,
    trace_digest,
)

TRACES_DIR = os.path.join(os.path.dirname(HASHES_PATH), "traces")


def load_corpus() -> dict:
    if not os.path.exists(HASHES_PATH):
        return {"format": GOLDEN_FORMAT, "scenarios": {}}
    with open(HASHES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify the committed corpus instead of rewriting it")
    args = parser.parse_args(argv)

    previous = load_corpus().get("scenarios", {})
    corpus: dict = {"format": GOLDEN_FORMAT, "scenarios": {}}
    failures = 0

    for name, scenario in golden_scenarios().items():
        traced = name in TRACED_SCENARIOS
        result, digest, text = run_golden(scenario, with_trace=traced)
        entry = {
            "result_sha256": digest,
            "events": result.events_processed,
            "queue_drops": result.queue_drops,
            "flows": len(result.flows),
            "measured_duration": result.measured_duration,
        }
        if text is not None:
            entry["trace_sha256"] = trace_digest(text)
        corpus["scenarios"][name] = entry

        old = previous.get(name)
        if old is None:
            status = "NEW"
        else:
            moved = []
            if old.get("result_sha256") != digest:
                moved.append("DIGEST")
            if old.get("events") != result.events_processed:
                moved.append("EVENTS")
            status = " ".join(moved + ["CHANGED"]) if moved else "unchanged"
            if moved:
                failures += 1
                if args.check:
                    print(drift_report(old, result))
        print(f"{name:20s} {digest[:16]}  events={result.events_processed:>8d}  {status}")

        if text is not None and not args.check:
            os.makedirs(TRACES_DIR, exist_ok=True)
            path = os.path.join(TRACES_DIR, f"{name}.jsonl.gz")
            # mtime=0 keeps the gzip bytes themselves reproducible, so
            # regenerating an unchanged trace never churns the diff.
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(text.encode("utf-8"))

    if args.check:
        if failures:
            print(f"{failures} scenario(s) diverged from the committed corpus")
            return 1
        print("all golden digests and event counts match the committed corpus")
        return 0

    os.makedirs(os.path.dirname(HASHES_PATH), exist_ok=True)
    with open(HASHES_PATH, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {HASHES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
