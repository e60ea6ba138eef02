"""Command-line interface.

Run single experiments or sweeps from the shell::

    repro run --setting core --flows 3000 --cca bbr --scale 50 --duration 60
    repro run --setting edge --flows 30 --cca newreno --store benchmarks/_cache
    repro run --setting edge --flows 10 --faults blackout
    repro compete --setting core --flows 1000 --ccas bbr cubic --scale 50
    repro profile --setting edge --flows 30 --cca cubic --top 10
    repro bench --quick --out BENCH_engine.json
    repro models --rtt 0.02 --p 0.001
    repro faults ls
    repro cache ls
    repro cache gc --dry-run

Output is a human-readable experiment summary plus optional JSON
(``--json``) for scripting. ``--store DIR`` routes an experiment
through the content-addressed run store (``repro.runstore``): a warm
key is served from disk instead of re-simulating, and fresh results
are persisted atomically. ``repro cache`` inspects and maintains the
same store; its default location is ``$REPRO_STORE`` or
``benchmarks/_cache``.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from .analysis.mathis_fit import fit_mathis
from .bench import main as _cmd_bench
from .core.experiment import run_experiment
from .core.results import ExperimentResult
from .core.scenarios import FlowGroup, Scenario, core_scale, edge_scale
from .faults import PRESETS, FaultSchedule, WatchdogConfig
from .lint import ALL_CODES, RULE_SUMMARIES
from .lint.runner import main as lint_main
from .models.cubic_model import cubic_throughput
from .models.mathis import mathis_throughput
from .models.padhye import padhye_throughput
from .obs import EventBus, SimProfiler, TraceRecorder, write_trace_jsonl
from .runstore import (
    CACHE_VERSION,
    Job,
    RunOptions,
    RunStore,
    SweepStats,
    print_progress,
    run_jobs,
)
from .units import MSS

#: Where ``repro cache`` (and ``--store`` without a value) looks by default.
DEFAULT_STORE = os.environ.get("REPRO_STORE") or os.path.join("benchmarks", "_cache")


def _base_scenario(args: argparse.Namespace) -> Scenario:
    if args.setting == "edge":
        scenario = edge_scale(
            flows=args.flows,
            cca=args.cca,
            rtt=args.rtt,
            duration=args.duration,
            warmup=args.warmup,
            seed=args.seed,
        )
    else:
        scenario = core_scale(
            flows=args.flows,
            cca=args.cca,
            rtt=args.rtt,
            scale=args.scale,
            duration=args.duration,
            warmup=args.warmup,
            seed=args.seed,
        )
    if getattr(args, "faults", None):
        try:
            schedule = FaultSchedule.from_spec(args.faults, scenario.duration)
            scenario = scenario.with_overrides(faults=schedule.events)
        except ValueError as exc:
            print(f"--faults: {exc}", file=sys.stderr)
            raise SystemExit(2) from exc
    return scenario


def _watchdog_config(args: argparse.Namespace) -> Optional[WatchdogConfig]:
    """Watchdog for ``repro run``: explicit budget wins; any faulted run
    gets the default config so it degrades instead of hanging."""
    if getattr(args, "stall_budget", None) is not None:
        return WatchdogConfig(stall_budget=args.stall_budget)
    if getattr(args, "faults", None):
        return WatchdogConfig()
    return None


def _result_json(result: ExperimentResult) -> Dict[str, Any]:
    return {
        "scenario": dataclasses.asdict(result.scenario),
        "measured_duration": result.measured_duration,
        "utilization": result.utilization,
        "aggregate_loss_rate": result.aggregate_loss_rate,
        "jfi": result.jfi(),
        "shares": result.shares(),
        "flows": [
            {
                "flow_id": f.flow_id,
                "cca": f.cca,
                "goodput_bps": f.goodput_bps,
                "loss_rate": f.loss_rate,
                "halving_rate": f.halving_rate,
                "rtos": f.rtos,
            }
            for f in result.flows
        ],
        "health": result.health.to_json() if result.health is not None else None,
    }


def _emit(
    result: ExperimentResult,
    args: argparse.Namespace,
    stats: Optional[SweepStats] = None,
) -> None:
    print(result.summary())
    if stats is not None:
        print(f"store: {stats.summary()}")
    if args.mathis:
        for interp in ("loss", "halving"):
            try:
                fit = fit_mathis(result.observations(), interp, MSS)
            except ValueError:
                print(f"mathis[{interp}]: no usable observations")
                continue
            print(
                f"mathis[{interp}]: C={fit.constant:.3f} "
                f"median_error={fit.median_error:.1%}"
            )
    if args.json:
        payload = _result_json(result)
        if stats is not None:
            payload["stats"] = stats.to_json()
        json.dump(payload, sys.stdout, indent=2)
        print()


def _run_one(
    scenario: Scenario, args: argparse.Namespace
) -> Tuple[ExperimentResult, Optional[SweepStats], Optional[SimProfiler]]:
    """Run a scenario directly, or through the store when ``--store``.

    ``--profile`` and ``--trace`` attach in-process observers (a
    :class:`SimProfiler` / a bus-fed :class:`TraceRecorder`), so they
    only work on the direct path: with ``--store`` the simulation runs
    in a worker process the parent's observers cannot see into.
    """
    watchdog = _watchdog_config(args)
    max_events = getattr(args, "max_events", None)
    profile = bool(getattr(args, "profile", False))
    trace_path = getattr(args, "trace", None)
    if args.store and (profile or trace_path):
        print("--profile/--trace require a direct run (drop --store)",
              file=sys.stderr)
        raise SystemExit(2)
    if not args.store:
        profiler = SimProfiler() if profile else None
        bus = recorder = None
        if trace_path:
            bus = EventBus()
            recorder = TraceRecorder(bus, start_time=scenario.warmup)
        result = run_experiment(
            scenario,
            convergence_check=args.converge,
            watchdog=watchdog,
            max_events=max_events,
            bus=bus,
            profiler=profiler,
        )
        if recorder is not None:
            write_trace_jsonl(recorder, trace_path, result=result)
        return result, None, profiler
    options = RunOptions(
        convergence_check=args.converge,
        watchdog=watchdog,
        max_events=max_events,
    )
    outcome = run_jobs(
        [Job(scenario, options)],
        store=RunStore(args.store),
        workers=1,
        timeout=args.timeout,
        fresh=args.fresh,
        progress=print_progress if args.progress else None,
    )
    return outcome.results[0], outcome.stats, None


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _base_scenario(args)
    result, stats, profiler = _run_one(scenario, args)
    _emit(result, args, stats)
    if profiler is not None:
        print(profiler.report())
    return 0


def _cmd_compete(args: argparse.Namespace) -> int:
    if len(args.ccas) < 2:
        print("compete needs at least two --ccas", file=sys.stderr)
        return 2
    base = _base_scenario(args)
    share = base.total_flows // len(args.ccas)
    if share < 1:
        print("not enough flows for the requested CCA mix", file=sys.stderr)
        return 2
    groups = tuple(FlowGroup(cca, share, args.rtt) for cca in args.ccas)
    scenario = base.with_overrides(
        groups=groups, name=f"compete-{'-'.join(args.ccas)}"
    )
    result, stats, profiler = _run_one(scenario, args)
    _emit(result, args, stats)
    if profiler is not None:
        print(profiler.report())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one scenario under the simulator profiler and print the
    per-handler event counts and wall-time table. Profiling is
    observation-only: the result is byte-identical to an unprofiled run."""
    if args.store:
        print("profile always runs directly; drop --store", file=sys.stderr)
        return 2
    args.profile = True
    scenario = _base_scenario(args)
    result, _, profiler = _run_one(scenario, args)
    _emit(result, args, None)
    assert profiler is not None
    print(profiler.report(top=args.top))
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    rows = [
        ("mathis (C=0.94)", mathis_throughput(MSS, args.rtt, args.p)),
        ("padhye/PFTK", padhye_throughput(MSS, args.rtt, args.p)),
        ("cubic", cubic_throughput(MSS, args.rtt, args.p)),
    ]
    print(f"model predictions for RTT={args.rtt * 1000:.0f}ms p={args.p}:")
    for name, rate in rows:
        print(f"  {name:18s} {rate / 1e6:10.3f} Mbps")
    if args.json:
        json.dump({name: rate for name, rate in rows}, sys.stdout, indent=2)
        print()
    return 0


def _fmt_size(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{size}B"  # pragma: no cover - unreachable


def _fmt_when(created: float) -> str:
    if created <= 0:
        return "-"
    return datetime.datetime.fromtimestamp(created).strftime("%Y-%m-%d %H:%M")


def _cmd_cache_ls(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    entries = store.ls()
    if args.json:
        json.dump([e.to_json() for e in entries], sys.stdout, indent=2)
        print()
        return 0
    if not entries:
        print(f"store {args.store}: empty")
        return 0
    print(f"store {args.store}: {len(entries)} entries (cache v{CACHE_VERSION})")
    for e in entries:
        flag = "" if e.version == CACHE_VERSION else f"  [stale v{e.version}]"
        print(
            f"{e.key[:12]}  {_fmt_size(e.size):>9s}  wall={e.wall_seconds:7.2f}s  "
            f"{_fmt_when(e.created)}  {e.name}{flag}"
        )
    return 0


def _cmd_cache_info(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    matches = store.resolve(args.key)
    if not matches:
        print(f"no entry matches key prefix {args.key!r}", file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(
            f"key prefix {args.key!r} is ambiguous ({len(matches)} matches)",
            file=sys.stderr,
        )
        return 2
    key = matches[0]
    meta = store.meta(key)
    if meta is None:
        print(f"entry {key} is corrupt (dropped)", file=sys.stderr)
        return 1
    if args.json:
        json.dump(meta, sys.stdout, indent=2)
        print()
        return 0
    for field_name in ("key", "name", "version", "size", "wall_seconds", "events"):
        print(f"{field_name:14s} {meta.get(field_name, '-')}")
    print(f"{'created':14s} {_fmt_when(float(meta.get('created', 0.0)))}")
    payload = store.get(key)
    summary = getattr(payload, "summary", None)
    if callable(summary):
        print(summary())
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    report = store.gc(dry_run=args.dry_run, all_versions=args.all_versions)
    if args.json:
        json.dump(report.to_json(), sys.stdout, indent=2)
        print()
        return 0
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"gc {args.store}: {verb} {len(report.removed)} object(s) "
        f"({_fmt_size(report.bytes_freed)}), kept {report.kept}"
    )
    for path in report.removed:
        print(f"  - {os.path.basename(path)}")
    return 0


def _cmd_faults_ls(args: argparse.Namespace) -> int:
    duration = args.duration
    if args.json:
        payload = [
            {
                "name": preset.name,
                "summary": preset.summary,
                "schedule": preset.describe(duration),
            }
            for preset in PRESETS.values()
        ]
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(f"fault presets (schedules shown for a {duration:g}s run):")
    for preset in PRESETS.values():
        print(f"  {preset.name:12s} {preset.summary}")
        print(f"  {'':12s} {preset.describe(duration)}")
    print('combine presets with raw tokens: --faults "blackout,rtt@20+1=4"')
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for code in ALL_CODES:
            print(f"{code}  {RULE_SUMMARIES[code]}")
        return 0
    return lint_main(args.paths, select=args.select or ())


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--setting", choices=("edge", "core"), default="core")
    p.add_argument("--flows", type=int, default=1000,
                   help="paper flow count (edge: actual count)")
    p.add_argument("--cca", default="newreno")
    p.add_argument("--rtt", type=float, default=0.020, help="base RTT in seconds")
    p.add_argument("--scale", type=int, default=50,
                   help="core-scale divisor (1 = the paper's full 10 Gbps)")
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--warmup", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--converge", action="store_true",
                   help="enable the paper's early-stop convergence rule")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject faults: comma-separated presets and/or "
                        "kind@time[+duration][=value] tokens "
                        "(see 'repro faults ls')")
    p.add_argument("--stall-budget", type=float, default=None, metavar="SECONDS",
                   help="arm the stall watchdog with this per-flow budget "
                        "in simulated seconds (implied, at its default, "
                        "by --faults)")
    p.add_argument("--max-events", type=int, default=None, metavar="N",
                   help="override the event-budget safety valve")
    p.add_argument("--mathis", action="store_true",
                   help="fit the Mathis constant from the run")
    p.add_argument("--profile", action="store_true",
                   help="profile the simulator (per-handler event counts "
                        "and wall time; results stay byte-identical)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="export a structured JSONL event trace "
                        "(cwnd/enqueue/drop/fault rows plus the run "
                        "health record) to FILE")
    p.add_argument("--json", action="store_true", help="emit JSON after the summary")
    p.add_argument("--store", nargs="?", const=DEFAULT_STORE, default=None,
                   metavar="DIR",
                   help="serve/persist the result via the run store at DIR "
                        f"(DIR defaults to {DEFAULT_STORE} when the flag is bare)")
    p.add_argument("--fresh", action="store_true",
                   help="with --store: ignore a stored result and re-simulate")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="with --store: per-run wall-clock limit")
    p.add_argument("--progress", action="store_true",
                   help="with --store: print per-job scheduler events")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="At-scale TCP throughput-model and fairness measurement harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one intra-CCA experiment")
    _add_experiment_args(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_compete = sub.add_parser("compete", help="run an inter-CCA competition")
    _add_experiment_args(p_compete)
    p_compete.add_argument("--ccas", nargs="+", default=["bbr", "newreno"])
    p_compete.set_defaults(fn=_cmd_compete)

    p_profile = sub.add_parser(
        "profile",
        help="run one experiment under the simulator profiler",
        description="Like 'repro run', but always profiles the event "
        "loop and prints the per-handler count/wall-time table. "
        "Profiling is observation-only, so the printed result is "
        "byte-identical to an unprofiled run of the same scenario.",
    )
    _add_experiment_args(p_profile)
    p_profile.add_argument("--top", type=int, default=None, metavar="N",
                           help="only show the N most expensive handlers")
    p_profile.set_defaults(fn=_cmd_profile)

    p_faults = sub.add_parser(
        "faults",
        help="inspect the fault-injection presets",
        description="Deterministic fault schedules for chaos runs "
        "(repro.faults); presets feed 'repro run --faults <name>'.",
    )
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_faults_ls = faults_sub.add_parser("ls", help="list named fault presets")
    p_faults_ls.add_argument("--duration", type=float, default=30.0,
                             help="scenario duration the example schedules "
                                  "are scaled to")
    p_faults_ls.add_argument("--json", action="store_true", help="emit JSON")
    p_faults_ls.set_defaults(fn=_cmd_faults_ls)

    p_bench = sub.add_parser(
        "bench",
        help="measure engine throughput (events/sec) on canonical workloads",
        description="Runs the fixed benchmark set from repro.bench and "
        "optionally writes BENCH_engine.json and/or gates against a "
        "committed baseline (CI's perf-smoke job). Benchmarking is "
        "observation-only: the simulated results themselves are pinned "
        "by the golden-run suite, not by this command.",
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="shorter scenarios, one repeat (CI profile)")
    p_bench.add_argument("--repeats", type=int, default=None, metavar="N",
                         help="timing repeats per scenario, best-of "
                              "(default: 1 with --quick, else 2)")
    p_bench.add_argument("--out", default=None, metavar="FILE",
                         help="write the BENCH_engine.json document to FILE")
    p_bench.add_argument("--baseline", default=None, metavar="FILE",
                         help="compare against a committed bench JSON and "
                              "exit non-zero on regression")
    p_bench.add_argument("--fail-threshold", type=float, default=0.25,
                         metavar="R",
                         help="with --baseline: allowed fractional events/sec "
                              "regression before failing (default: 0.25)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_models = sub.add_parser("models", help="print analytic model predictions")
    p_models.add_argument("--rtt", type=float, default=0.020)
    p_models.add_argument("--p", type=float, default=0.001)
    p_models.add_argument("--json", action="store_true")
    p_models.set_defaults(fn=_cmd_models)

    p_cache = sub.add_parser(
        "cache",
        help="inspect and maintain the content-addressed result store",
        description="Operations on a repro run store (see repro.runstore). "
        "The store location comes from --store, $REPRO_STORE, or "
        "benchmarks/_cache in that order.",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    def _add_store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                       help=f"store root (default: {DEFAULT_STORE})")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p_ls = cache_sub.add_parser("ls", help="list stored results")
    _add_store_arg(p_ls)
    p_ls.set_defaults(fn=_cmd_cache_ls)

    p_info = cache_sub.add_parser("info", help="show one entry's metadata")
    p_info.add_argument("key", help="full key or unambiguous prefix")
    _add_store_arg(p_info)
    p_info.set_defaults(fn=_cmd_cache_info)

    p_gc = cache_sub.add_parser(
        "gc", help="delete temp leftovers, corrupt objects and stale versions"
    )
    _add_store_arg(p_gc)
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be removed without removing")
    p_gc.add_argument("--all-versions", action="store_true",
                      help="keep entries from older CACHE_VERSIONs")
    p_gc.set_defaults(fn=_cmd_cache_gc)

    p_lint = sub.add_parser(
        "lint",
        help="run the simulator-aware static analysis pass",
        description="AST lint rules for simulation code (RPR001..RPR006); "
        "exits non-zero when any unsuppressed finding remains.",
    )
    p_lint.add_argument("paths", nargs="*", default=["src", "benchmarks"],
                        help="files or directories to lint (default: src benchmarks)")
    p_lint.add_argument("--select", nargs="+", metavar="RPRxxx",
                        help="only report these rule codes")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print every rule code and exit")
    p_lint.set_defaults(fn=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
