"""Benchmark entry point for the packet-level TCP simulator.

Run from the repository root with a plain interpreter (no install, no
``PYTHONPATH``)::

    python3 perfbench/run.py --workload core-loss --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics declared in ``BENCHMARK.json``; ``--trace 1`` runs
the separate cProfile-traced passes and reports the per-layer metrics.
Human-readable lines (each metric with its unit, the error rate and
the workload's result digest) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

Everything the benchmark writes goes to a temporary directory inside
the repository root, removed on exit. The exit code is 0 only when
every output check passed; a missing ``src/repro`` package or
``BENCHMARK.json`` exits 2 without printing a result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec(path: str = SPEC_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared(spec: Dict[str, Any], trace: bool) -> List[Dict[str, Any]]:
    """The metric declarations a run in this mode must report."""
    return spec["per_layer"] if trace else spec["end_to_end"]


def result_line(
    spec: Dict[str, Any], trace: bool, metrics: Dict[str, float],
    attempted: int, failed: int,
) -> Dict[str, Any]:
    """The final JSON object; raises if a declared metric is missing or
    an undeclared one was measured."""
    wanted = declared(spec, trace)
    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise KeyError(f"metrics do not match BENCHMARK.json: missing={missing} extra={extra}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC_PATH):
        print(f"perfbench: {SPEC_PATH} not found", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from checks import Tally
    from workloads import WORKLOADS, reap_children

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tmp_root = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    os.environ["TMPDIR"] = tmp_root
    tempfile.tempdir = tmp_root
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](args.seed, SRC, tmp_root)
        run = workload.traced if args.trace else workload.timed
        metrics, digest = run(args.seconds, tally)
    finally:
        reap_children()
        shutil.rmtree(tmp_root, ignore_errors=True)
    line = result_line(spec, bool(args.trace), metrics, tally.attempted, tally.failed)

    for m in declared(spec, bool(args.trace)):
        print(f"{m['name']:28s} {metrics[m['name']]:>16.6g} {m['unit']}")
    for name, value in workload.info.items():
        print(f"info {name} {value:.6g}")
    print(f"error_rate {tally.error_rate:.6g} ({tally.failed} failed of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print(f"digest {args.workload} seed={args.seed} {digest}")
    print(f"process_s {time.perf_counter() - PROCESS_START:.3f}")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
