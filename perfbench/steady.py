"""Steadiness check: run workloads repeatedly and report each end-to-end
metric's median, quartiles and spread against its bound.

Usage, from the repository root::

    python3 perfbench/steady.py --workload core-loss --seeds 1,2,3,4,5
    python3 perfbench/steady.py --workload all --seeds 1-10 --seconds 20

Each (workload, seed) pair is one ``perfbench/run.py`` invocation in a
child process, exactly as the benchmark is run for real. The spread of
a metric is the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of its median; a
metric is steady when its spread is below a third of the metric's
``bound`` in ``BENCHMARK.json``. ``setup_s`` is reported but exempt,
because only its median is compared between runs. Exits 1 if any run
failed or any non-exempt metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Metrics whose run-to-run spread is not held to a bound.
SPREAD_EXEMPT = ("setup_s",)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run workloads repeatedly and report metric spread.")
    parser.add_argument("--workload", default="all", help=f"one of {names} or 'all'")
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = names if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)

    ok = True
    for workload in workloads:
        values: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            line = run_once(workload, seed, args.seconds)
            ok = ok and bool(line["correct"])
            for name, metric in line["metrics"].items():  # type: ignore[union-attr]
                values[name].append(metric["value"])
            shown = " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
            print(f"{workload} seed={seed} correct={line['correct']} {shown}", flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            sp = (q3 - q1) / median
            steady = m["name"] in SPREAD_EXEMPT or sp < m["bound"] / 3
            ok = ok and steady
            print(
                f"{workload:10s} {m['name']:12s} median={median:.6g} "
                f"q1={q1:.6g} q3={q3:.6g} spread={sp:.4f} bound={m['bound']} "
                f"{'steady' if steady else 'NOT STEADY'}",
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
