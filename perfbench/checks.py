"""Output checks applied to every result the benchmark produces.

Each check returns a list of human-readable problems; an empty list
means the result passed. The runner counts a result with any problem as
a failed operation, so a broken result always shows up in ``failed``
and in the printed error rate, never silently.

Conservation laws checked on an :class:`~repro.core.results.ExperimentResult`:

- queue drops never exceed queue arrivals, and the per-flow drop and
  arrival counts sum to the queue totals;
- no flow delivers more packets than it sent;
- bottleneck conservation: the packets the queue accepted in the
  measurement window fit through the link in that window plus one
  buffer-full and one packet in service;
- goodput conservation: the packets cumulatively ACKed in the window
  had all crossed the bottleneck by the end of the run.

Goodput is measured on cumulative ACKs, so data sent before the
warm-up cut but ACKed after it (a SACK hole filled late) is credited to
the window. Over short lossy windows the summed goodput can therefore
exceed the link rate measured over that window alone (about 111% on
``core-loss``) without any packet being created; the goodput law is
stated over the whole run for that reason, and the tight per-window
form is the bottleneck law above.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.units import DATA_PACKET_BYTES

WIRE_BITS = DATA_PACKET_BYTES * 8


def result_problems(result: Any) -> List[str]:
    """Invariant violations of one experiment result."""
    problems: List[str] = []
    scenario = result.scenario
    health = getattr(result, "health", None)
    if health is not None and not health.ok:
        problems.append(f"unhealthy run: {health.describe()}")
    if len(result.flows) != scenario.total_flows:
        problems.append(f"{len(result.flows)} flow results for {scenario.total_flows} flows")
    if result.events_processed <= 0 or result.measured_duration <= 0:
        problems.append("run processed no events or measured no window")
    if result.queue_drops > result.queue_arrivals:
        problems.append(f"queue drops {result.queue_drops} > arrivals {result.queue_arrivals}")
    if sum(f.queue_drops for f in result.flows) != result.queue_drops:
        problems.append("per-flow queue drops do not sum to the queue total")
    if sum(f.queue_arrivals for f in result.flows) != result.queue_arrivals:
        problems.append("per-flow queue arrivals do not sum to the queue total")
    for flow in result.flows:
        if flow.delivered_packets > flow.packets_sent:
            problems.append(
                f"flow {flow.flow_id} delivered {flow.delivered_packets} > sent {flow.packets_sent}"
            )
    rate = scenario.bottleneck_bw_bps
    window_capacity = rate * result.measured_duration / WIRE_BITS
    buffer_packets = scenario.buffer_bytes / DATA_PACKET_BYTES
    if result.queue_arrivals > window_capacity + buffer_packets + 1:
        problems.append(
            f"bottleneck accepted {result.queue_arrivals} packets in a window that "
            f"carries {window_capacity:.0f} plus a {buffer_packets:.0f}-packet buffer"
        )
    run_end = scenario.warmup + result.measured_duration
    delivered = sum(f.delivered_packets for f in result.flows)
    if delivered > rate * run_end / WIRE_BITS + 1:
        problems.append(
            f"flows ACKed {delivered} packets, more than the bottleneck carried in the run"
        )
    drop_times = result.drop_times
    if drop_times:
        if len(drop_times) != result.queue_drops:
            problems.append(f"{len(drop_times)} drop times for {result.queue_drops} drops")
        if drop_times != sorted(drop_times) or drop_times[0] < scenario.warmup or drop_times[-1] > run_end:
            problems.append("drop times unsorted or outside the measurement window")
    return problems


def digest_problems(digest: str, expected: Optional[str], what: str) -> List[str]:
    """A mismatch against the first digest seen for the same input."""
    if expected is None or digest == expected:
        return []
    return [f"{what}: digest {digest[:16]} differs from {expected[:16]}"]


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
