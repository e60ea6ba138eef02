"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure from the paper. The
underlying experiments are expensive (packet-level simulation), so:

- results live in the content-addressed run store (``repro.runstore``)
  under ``benchmarks/_cache/`` — sha256 of the canonical scenario JSON
  + run options + ``CACHE_VERSION`` (see ``repro/runstore/keys.py`` for
  the exact scheme). Re-running a bench serves its tables from the
  store; ``repro cache ls`` shows what is in it, and setting
  ``REPRO_BENCH_FRESH=1`` forces re-simulation;
- batches go through the fault-tolerant scheduler: identical scenarios
  shared between benches simulate once, scenarios fan out over worker
  processes (``REPRO_BENCH_PARALLEL``, default: one per simulation
  up to the CPU count; ``1`` runs inline), each completed result is persisted atomically as it
  finishes, and an interrupted bench resumes from what completed;

  *Cache tracking policy*: the seed results shipped with the repo stay
  committed (they make every figure reproducible without hours of
  simulation), but the directory is listed in ``.gitignore`` so entries
  *you* generate — new scenarios, bumped ``CACHE_VERSION`` — never
  churn in diffs. To publish refreshed seeds after a physics change,
  ``git add -f benchmarks/_cache/objects/<key>.pkl``;
- ``REPRO_BENCH_STATS=<path>`` writes an aggregate scheduler-stats JSON
  (hits/misses/retries/events-per-sec) at interpreter exit — CI uses it
  to assert a warm run performs zero simulations;
- ``REPRO_BENCH_PROFILE`` selects the fidelity/runtime trade-off:

  * ``smoke``  — minutes-scale sanity profile (tiny flow counts, short
    runs); shapes are noisy.
  * ``quick``  — the default: full flow-count sweeps at scale divisor
    50, RTT sweep on the figures where RTT is the finding (Fig 4), the
    paper's primary 20 ms line elsewhere.
  * ``full``   — full RTT sweeps everywhere and longer runs.

The scale divisor (``REPRO_BENCH_SCALE``, default 50) divides the
paper's 10 Gbps / 1000-5000 flows down to a tractable operating point
with identical per-flow share and buffer-per-BDP (see DESIGN.md §3).
"""

from __future__ import annotations

import atexit
import json
import os
from typing import Dict, List, Sequence, Tuple

from repro.core.results import ExperimentResult
from repro.core.scenarios import FlowGroup, Scenario
from repro.runstore import (
    CACHE_VERSION,
    Job,
    RunStore,
    SweepStats,
    print_progress,
    run_jobs,
)
from repro.units import bdp_bytes, gbps, mbps, megabytes

CACHE_DIR = os.path.join(os.path.dirname(__file__), "_cache")

#: The shared run store every benchmark reads and writes.
STORE = RunStore(CACHE_DIR)

#: Aggregate scheduler counters across every batch this process ran.
STATS = SweepStats()

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "quick")
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "200" if PROFILE == "smoke" else "50"))

#: Paper sweep points.
PAPER_CORE_COUNTS = (1000, 3000, 5000)
PAPER_EDGE_COUNTS = (10, 30, 50)
RTTS_ALL = (0.020, 0.100, 0.200)

if PROFILE == "smoke":
    DUR = {"mathis": (20.0, 6.0), "fig4": (20.0, 6.0), "share": (20.0, 6.0),
           "bbr_single": (30.0, 8.0), "intra": (20.0, 6.0), "ablation": (20.0, 6.0)}
    FIG_RTTS = (0.020,)
    FIG4_RTTS = (0.020,)
elif PROFILE == "full":
    DUR = {"mathis": (90.0, 30.0), "fig4": (120.0, 40.0), "share": (150.0, 50.0),
           "bbr_single": (180.0, 60.0), "intra": (150.0, 40.0), "ablation": (120.0, 40.0)}
    FIG_RTTS = RTTS_ALL
    FIG4_RTTS = RTTS_ALL
else:  # quick
    DUR = {"mathis": (60.0, 20.0), "fig4": (80.0, 30.0), "share": (100.0, 35.0),
           "bbr_single": (150.0, 50.0), "intra": (110.0, 30.0), "ablation": (80.0, 30.0)}
    FIG_RTTS = (0.020,)
    FIG4_RTTS = RTTS_ALL


def core_bandwidth_bps() -> float:
    return gbps(10) / SCALE


def scaled(count: int) -> int:
    """Scale a paper flow count down by the configured divisor."""
    return max(1, count // SCALE)


def core_scenario(
    groups: Sequence[Tuple[str, int, float]],
    family: str,
    name: str,
    seed: int = 11,
    buffer_bdp: float = 1.0,
    use_red_queue: bool = False,
) -> Scenario:
    """A CoreScale scenario; group counts are *paper* counts, scaled here."""
    duration, warmup = DUR[family]
    bw = core_bandwidth_bps()
    return Scenario(
        name=name,
        bottleneck_bw_bps=bw,
        buffer_bytes=max(1, int(buffer_bdp * bdp_bytes(bw, 0.200))),
        groups=tuple(FlowGroup(cca, scaled(count), rtt) for cca, count, rtt in groups),
        duration=duration,
        warmup=warmup,
        stagger_max=min(5.0, warmup * 0.5),
        seed=seed,
        use_red_queue=use_red_queue,
    )


def edge_scenario(
    groups: Sequence[Tuple[str, int, float]],
    family: str,
    name: str,
    seed: int = 11,
) -> Scenario:
    duration, warmup = DUR[family]
    return Scenario(
        name=name,
        bottleneck_bw_bps=mbps(100),
        buffer_bytes=megabytes(3),
        groups=tuple(FlowGroup(cca, count, rtt) for cca, count, rtt in groups),
        duration=duration,
        warmup=warmup,
        stagger_max=min(5.0, warmup * 0.5),
        seed=seed,
    )


def _maybe_dump_stats() -> None:
    path = os.environ.get("REPRO_BENCH_STATS")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(STATS.to_json(), fh, indent=2)


atexit.register(_maybe_dump_stats)


def run_batch(scenarios: Sequence[Scenario]) -> Dict[str, ExperimentResult]:
    """Run scenarios through the store-backed scheduler, keyed by name.

    Hits are served from ``benchmarks/_cache``; misses fan out over
    ``REPRO_BENCH_PARALLEL`` workers, persisting each result as it
    completes (so a killed bench resumes from what finished). Scenario
    names must be unique within a batch — they key the returned dict.
    """
    names = [sc.name for sc in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names within a batch must be unique")
    parallel = os.environ.get("REPRO_BENCH_PARALLEL")
    outcome = run_jobs(
        [Job(sc) for sc in scenarios],
        store=STORE,
        workers=int(parallel) if parallel else None,
        fresh=bool(os.environ.get("REPRO_BENCH_FRESH")),
        progress=print_progress if os.environ.get("REPRO_BENCH_PROGRESS") else None,
    )
    STATS.merge(outcome.stats)
    return dict(zip(names, outcome.results))


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print an aligned text table (the bench output the paper row maps to)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def fmt_pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def fmt(x: float, digits: int = 2) -> str:
    return f"{x:.{digits}f}"


# ----------------------------------------------------------------------
# Shared experiment families (several benches reuse the same runs).
# ----------------------------------------------------------------------

def mathis_core_results() -> Dict[int, ExperimentResult]:
    """NewReno intra-CCA CoreScale runs at 20 ms (Table 1 / Figs 2-3)."""
    scs: List[Scenario] = [
        core_scenario(
            [("newreno", count, 0.020)], "mathis", f"mathis-core-{count}", seed=21
        )
        for count in PAPER_CORE_COUNTS
    ]
    results = run_batch(scs)
    return {count: results[sc.name] for count, sc in zip(PAPER_CORE_COUNTS, scs)}


def mathis_edge_results() -> Dict[int, ExperimentResult]:
    """NewReno intra-CCA EdgeScale runs at 20 ms (Table 1 / Figs 2-3)."""
    scs: List[Scenario] = [
        edge_scenario(
            [("newreno", count, 0.020)], "mathis", f"mathis-edge-{count}", seed=21
        )
        for count in PAPER_EDGE_COUNTS
    ]
    results = run_batch(scs)
    return {count: results[sc.name] for count, sc in zip(PAPER_EDGE_COUNTS, scs)}
