"""Command-line interface.

Run single experiments or sweeps from the shell::

    repro run --setting core --flows 3000 --cca bbr --scale 50 --duration 60
    repro run --setting edge --flows 30 --cca newreno --store benchmarks/_cache
    repro run --setting edge --flows 10 --faults blackout
    repro compete --setting core --flows 1000 --ccas bbr cubic --scale 50
    repro run --setting edge --flows 30 --cca cubic --profile 10
    repro models --rtt 0.02 --p 0.001
    repro faults ls
    repro cache ls
    repro cache gc --dry-run

Output is a human-readable experiment summary plus optional JSON
(``--json``) for scripting. Every experiment runs inline through the
run-store scheduler (``repro.runstore.run_jobs``); ``--store DIR``
attaches its content-addressed store: a warm key is served from disk
instead of re-simulating, and fresh results are persisted atomically.
A run that fails (an unknown CCA, ``--timeout``) prints its failure to
stderr and exits 1. ``repro cache`` inspects and maintains the same
store; its default location is ``$REPRO_STORE`` or
``benchmarks/_cache``. Performance is measured outside the CLI, by
``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from .analysis.mathis_fit import fit_mathis
from .core.experiment import run_experiment
from .core.results import ExperimentResult
from .core.scenarios import FlowGroup, Scenario, core_scale, edge_scale
from .faults import PRESETS, FaultSchedule, WatchdogConfig
from .lint import ALL_CODES, RULE_SUMMARIES
from .lint.runner import main as lint_main
from .models.cubic_model import cubic_throughput
from .models.mathis import mathis_throughput
from .models.padhye import padhye_throughput
from .obs import EventBus, SimProfiler, TraceRecorder, trace_jsonl
from .runstore import (
    Job,
    RunOptions,
    RunStore,
    SweepError,
    SweepStats,
    print_progress,
    run_jobs,
)
from .runstore.keys import physics_fingerprint
from .units import MSS

#: Where ``repro cache`` (and ``--store`` without a value) looks by default.
DEFAULT_STORE = os.environ.get("REPRO_STORE") or os.path.join("benchmarks", "_cache")

#: Rows ``--trace`` keeps in memory; later events are counted as
#: dropped, so a CoreScale trace cannot exhaust the host's memory.
TRACE_MAX_EVENTS = 100_000


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
    """Run a scenario through :func:`run_jobs`, served from the run
    store when ``--store`` holds it; stats are returned with ``--store``.

    ``--profile`` and ``--trace`` observe the simulation in this process
    (a :class:`SimProfiler` / a bus-fed :class:`TraceRecorder`), so they
    refuse ``--store``: a store hit simulates nothing to observe.
    """
    profile = args.profile is not None
    if args.store and (profile or args.trace):
        print("--profile/--trace observe a simulation, and a --store hit "
              "runs none (drop --store)", file=sys.stderr)
        raise SystemExit(2)
    profiler = SimProfiler() if profile else None
    bus = recorder = None
    if args.trace:
        bus = EventBus()
        recorder = TraceRecorder(
            bus, max_events=TRACE_MAX_EVENTS, start_time=scenario.warmup
        )
    options = RunOptions(
        convergence_check=args.converge,
        watchdog=_watchdog_config(args),
        max_events=args.max_events,
    )
    outcome = run_jobs(
        [Job(scenario, options)],
        store=RunStore(args.store) if args.store else None,
        workers=1,
        timeout=args.timeout,
        fresh=args.fresh,
        run_fn=functools.partial(run_experiment, bus=bus, profiler=profiler),
        progress=print_progress if args.progress else None,
    )
    result = outcome.results[0]
    if recorder is not None:
        with open(args.trace, "w", newline="") as fh:
            fh.write(trace_jsonl(recorder, result))
        if recorder.dropped_events:
            print(f"--trace: kept the first {len(recorder.events)} rows, "
                  f"dropped {recorder.dropped_events}", file=sys.stderr)
    return result, outcome.stats if args.store else None, profiler


def _run_and_emit(scenario: Scenario, args: argparse.Namespace) -> int:
    try:
        result, stats, profiler = _run_one(scenario, args)
    except SweepError as exc:
        for failure in exc.failures:
            print(failure.render(), file=sys.stderr)
        return 1
    _emit(result, args, stats)
    if profiler is not None:
        print(profiler.report(top=args.profile or None))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_and_emit(_base_scenario(args), args)


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
    return _run_and_emit(scenario, args)


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
    print(f"store {args.store}: {len(entries)} entries")
    for e in entries:
        flag = "" if e.physics == physics_fingerprint() else "  [stale]"
        print(
            f"{e.key[:12]}  {_fmt_size(e.size):>9s}  events={e.events:<10d}  "
            f"{e.name}{flag}"
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
    for field_name in ("key", "name", "size", "events", "physics"):
        print(f"{field_name:14s} {meta.get(field_name, '-')}")
    payload = store.get(key)
    summary = getattr(payload, "summary", None)
    if callable(summary):
        print(summary())
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    report = store.gc(dry_run=args.dry_run)
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


def _handler_count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


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
    p.add_argument("--profile", nargs="?", type=_handler_count, const=0,
                   default=None, metavar="TOP",
                   help="profile the simulator (per-handler event counts "
                        "and wall time; results stay byte-identical) and "
                        "print the TOP most expensive handlers (all when "
                        "TOP is omitted)")
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
                   help="per-run wall-clock limit; a run that exceeds it "
                        "fails (exit 1)")
    p.add_argument("--progress", action="store_true",
                   help="print the run's scheduler events "
                        "(hit/start/done/failed)")


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
        "gc", help="delete temp leftovers, corrupt objects and results of older physics"
    )
    _add_store_arg(p_gc)
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be removed without removing")
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
    try:
        status: int = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro cache ls | head``). Point
        # stdout at devnull so the interpreter's flush at exit cannot
        # raise again, and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
