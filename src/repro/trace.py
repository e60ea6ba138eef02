"""Result and time-series export.

The paper's analysis pipeline lives off experiment artefacts: per-flow
summaries, queue drop logs, cwnd traces. This module writes those as
CSV/JSON so external tooling (pandas, gnuplot, the paper's own plotting
scripts) can consume them.

- :func:`write_flow_csv` — one row per flow (goodput, loss, halvings…);
- :func:`write_drops_csv` — the bottleneck drop-time series;
- :func:`write_cwnd_csv` — a :class:`~repro.instrumentation.tcpprobe.CwndProbe`
  sample series (tcpprobe's output format, simulator edition);
- :func:`result_to_dict` / :func:`write_result_json` — everything, as
  one JSON document;
- :func:`write_trace_jsonl` / :func:`write_health_json` — structured
  event traces and run-health records (see :mod:`repro.obs.tracing`)
  so degraded runs stay diagnosable after the fact.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from typing import Any, Dict, Iterable, Tuple

from .core.results import ExperimentResult, FlowResult
from .instrumentation.tcpprobe import CwndProbe
from .obs.tracing import PathOrFile, _open, health_rows, write_jsonl, write_trace_jsonl

__all__ = [
    "FLOW_FIELDS",
    "write_flow_csv",
    "read_flow_csv",
    "write_drops_csv",
    "write_cwnd_csv",
    "result_to_dict",
    "write_result_json",
    "write_trace_jsonl",
    "write_health_json",
]

#: The stored FlowResult columns, derived from the dataclass itself so a
#: new field automatically flows into CSV headers and JSON exports (the
#: old hand-maintained tuple was sliced by magic index — ``[:12]`` —
#: and adding a column would have silently corrupted JSON exports).
_FLOW_COLUMNS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(FlowResult)
)
#: Derived per-flow metrics appended after the stored columns.
_DERIVED_COLUMNS: Tuple[str, ...] = ("loss_rate", "halving_rate")

FLOW_FIELDS: Tuple[str, ...] = _FLOW_COLUMNS + _DERIVED_COLUMNS

#: Typed readback schema for :func:`read_flow_csv`. ``measured_rtt`` is
#: optional: an empty cell reads back as ``None``, mirroring the writer.
_INT_FIELDS = frozenset(
    name
    for name in FLOW_FIELDS
    if name
    in (
        "flow_id",
        "delivered_packets",
        "packets_sent",
        "retransmits",
        "halvings",
        "rtos",
        "queue_drops",
        "queue_arrivals",
    )
)
_FLOAT_FIELDS = frozenset(
    ("base_rtt", "goodput_bps", "loss_rate", "halving_rate")
)
_OPTIONAL_FLOAT_FIELDS = frozenset(("measured_rtt",))


def write_flow_csv(result: ExperimentResult, dest: PathOrFile) -> None:
    """Write one CSV row per flow with all measured quantities."""
    fh, owned = _open(dest)
    try:
        writer = csv.writer(fh)
        writer.writerow(FLOW_FIELDS)
        for flow in result.flows:
            row = [getattr(flow, field) for field in FLOW_FIELDS]
            writer.writerow(["" if value is None else value for value in row])
    finally:
        if owned:
            fh.close()


def write_drops_csv(result: ExperimentResult, dest: PathOrFile) -> None:
    """Write the bottleneck drop timestamps (one per row)."""
    fh, owned = _open(dest)
    try:
        writer = csv.writer(fh)
        writer.writerow(["drop_time_s"])
        for t in result.drop_times:
            writer.writerow([t])
    finally:
        if owned:
            fh.close()


def write_cwnd_csv(probe: CwndProbe, dest: PathOrFile) -> None:
    """Write a cwnd probe's recorded samples (needs ``record_samples``)."""
    fh, owned = _open(dest)
    try:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "event", "cwnd_packets"])
        for t, kind, cwnd in probe.samples:
            writer.writerow([t, kind, cwnd])
    finally:
        if owned:
            fh.close()


def result_to_dict(result: ExperimentResult, include_drop_times: bool = False) -> Dict[str, Any]:
    """The full result as a JSON-serialisable dictionary."""
    payload = {
        "scenario": dataclasses.asdict(result.scenario),
        "measured_duration": result.measured_duration,
        "utilization": result.utilization,
        "aggregate_goodput_bps": result.aggregate_goodput_bps,
        "aggregate_loss_rate": result.aggregate_loss_rate,
        "total_congestion_events": result.total_congestion_events,
        "queue_drops": result.queue_drops,
        "queue_arrivals": result.queue_arrivals,
        "jfi": result.jfi(),
        "shares": result.shares(),
        "flows": [
            {field: getattr(flow, field) for field in FLOW_FIELDS}
            for flow in result.flows
        ],
    }
    if include_drop_times:
        payload["drop_times"] = list(result.drop_times)
    return payload


def write_result_json(
    result: ExperimentResult, dest: PathOrFile, include_drop_times: bool = False
) -> None:
    """Serialise the full result as a JSON document."""
    fh, owned = _open(dest)
    try:
        json.dump(result_to_dict(result, include_drop_times), fh, indent=2)
        fh.write("\n")
    finally:
        if owned:
            fh.close()


def _coerce_row(row: Dict[str, str]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, raw in row.items():
        value: Any = raw
        if key in _INT_FIELDS:
            value = int(raw)
        elif key in _FLOAT_FIELDS:
            value = float(raw)
        elif key in _OPTIONAL_FLOAT_FIELDS:
            value = None if raw == "" else float(raw)
        out[key] = value
    return out


def read_flow_csv(source: PathOrFile) -> Iterable[Dict[str, Any]]:
    """Read back rows produced by :func:`write_flow_csv`.

    Numeric columns are coerced back to their native types (counters to
    ``int``, rates and RTTs to ``float``); an empty ``measured_rtt``
    cell — written for flows that never completed an RTT sample — reads
    back as ``None``, so a write/read round trip is loss-free.
    """
    if isinstance(source, str):
        with open(source, newline="") as fh:
            yield from [_coerce_row(row) for row in csv.DictReader(fh)]
    else:
        for row in csv.DictReader(source):
            yield _coerce_row(row)


def write_health_json(result: ExperimentResult, dest: PathOrFile) -> None:
    """Write the run's health record and fault timeline as JSONL rows.

    A thin wrapper over :func:`repro.obs.tracing.health_rows` so callers
    that only import :mod:`repro.trace` can still export the degradation
    audit trail next to their CSVs.
    """
    write_jsonl(health_rows(result), dest)
