"""Experiment result containers and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.fairness import jains_fairness_index
from ..analysis.mathis_fit import FlowObservation
from ..analysis.throughput import group_shares
from ..units import MSS
from .scenarios import Scenario


@dataclass
class RunHealth:
    """Run-integrity record attached to faulted / watchdog-guarded runs.

    Schema (see DESIGN.md §9):

    - ``ok`` — ``True`` when the run reached its configured duration;
      ``False`` when it was truncated by the watchdog or event budget.
    - ``reason`` — why a truncated run stopped: ``"stall"`` (every
      runnable flow went a stall budget without delivery progress) or
      ``"event_budget"`` (the ``max_events`` safety valve tripped,
      catching zero-sim-time livelock). Empty for a completed run.
    - ``truncated_at`` — simulated time at truncation (``None`` for a
      completed run). Per-flow measurements cover warm-up → this time.
    - ``stalled_flows`` — flow ids with no delivery progress for a full
      stall budget at the last watchdog check (may be non-empty even
      when ``ok``: a sweep degrades per-flow, not per-job).
    - ``fault_timeline`` — ``(sim_time, description)`` audit trail of
      every fault the injector applied or restored.
    """

    ok: bool = True
    reason: str = ""
    truncated_at: Optional[float] = None
    stalled_flows: List[int] = field(default_factory=list)
    fault_timeline: List[Tuple[float, str]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "truncated_at": self.truncated_at,
            "stalled_flows": list(self.stalled_flows),
            "fault_timeline": [[t, d] for t, d in self.fault_timeline],
        }

    def describe(self) -> str:
        """One human-readable line (appended to result summaries)."""
        if self.ok:
            state = "ok"
        else:
            state = f"TRUNCATED at t={self.truncated_at:.2f}s ({self.reason})"
        bits = [f"health: {state}"]
        if self.stalled_flows:
            ids = ",".join(str(f) for f in self.stalled_flows[:8])
            more = "..." if len(self.stalled_flows) > 8 else ""
            bits.append(f"stalled=[{ids}{more}]")
        if self.fault_timeline:
            bits.append(f"faults={len(self.fault_timeline)} event(s)")
        return " ".join(bits)


@dataclass
class FlowResult:
    """Measurements for one flow.

    Goodput and every count but ``packets_sent`` and ``retransmits``
    cover the measurement window only; those two count the whole run.
    """

    flow_id: int
    cca: str
    base_rtt: float
    measured_rtt: Optional[float]
    goodput_bps: float
    delivered_packets: int
    packets_sent: int
    retransmits: int
    halvings: int
    rtos: int
    queue_drops: int
    queue_arrivals: int

    @property
    def congestion_events(self) -> int:
        """Window reductions: fast-recovery entries + RTOs."""
        return self.halvings + self.rtos

    @property
    def loss_rate(self) -> float:
        """Per-flow packet loss rate at the bottleneck queue."""
        offered = self.queue_arrivals + self.queue_drops
        if offered == 0:
            return 0.0
        return self.queue_drops / offered

    @property
    def halving_rate(self) -> float:
        """Congestion events per delivered packet (the Mathis ``p``)."""
        if self.delivered_packets <= 0:
            return 0.0
        return self.congestion_events / self.delivered_packets

    def observation(self) -> FlowObservation:
        """This flow as a Mathis-fit observation."""
        rtt = self.measured_rtt if self.measured_rtt else self.base_rtt
        return FlowObservation(
            goodput_bps=self.goodput_bps,
            rtt_s=rtt,
            loss_rate=self.loss_rate,
            halving_rate=self.halving_rate,
        )


@dataclass
class ExperimentResult:
    """Everything measured in one experiment run."""

    scenario: Scenario
    flows: List[FlowResult]
    measured_duration: float
    queue_drops: int
    queue_arrivals: int
    drop_times: List[float] = field(default_factory=list)
    events_processed: int = 0
    # Plain class-level default (not a factory) so instances unpickled
    # from pre-fault-subsystem stores fall back to the class attribute.
    health: Optional[RunHealth] = None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def aggregate_goodput_bps(self) -> float:
        return sum(f.goodput_bps for f in self.flows)

    @property
    def aggregate_loss_rate(self) -> float:
        """Queue-level loss rate: drops / packets offered."""
        offered = self.queue_arrivals + self.queue_drops
        if offered == 0:
            return 0.0
        return self.queue_drops / offered

    @property
    def total_congestion_events(self) -> int:
        return sum(f.congestion_events for f in self.flows)

    @property
    def utilization(self) -> float:
        """Goodput as a fraction of payload capacity."""
        payload_capacity = self.scenario.bottleneck_bw_bps * (MSS / 1500.0)
        return self.aggregate_goodput_bps / payload_capacity

    def goodputs(self) -> Dict[int, float]:
        """Per-flow goodput keyed by flow id."""
        return {f.flow_id: f.goodput_bps for f in self.flows}

    def flows_of(self, cca: str) -> List[FlowResult]:
        """All flows running the named CCA."""
        return [f for f in self.flows if f.cca == cca]

    def jfi(self, cca: Optional[str] = None) -> float:
        """Jain's Fairness Index over all flows, or over one CCA group."""
        flows = self.flows_of(cca) if cca else self.flows
        if not flows:
            raise ValueError(f"no flows for cca={cca!r}")
        return jains_fairness_index([f.goodput_bps for f in flows])

    def shares(self) -> Dict[str, float]:
        """Fraction of total goodput per CCA group (Figs 5-8)."""
        return group_shares(self.goodputs(), {f.flow_id: f.cca for f in self.flows})

    def observations(self) -> List[FlowObservation]:
        """Mathis-fit observations for every flow."""
        return [f.observation() for f in self.flows]

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"scenario={self.scenario.name} flows={len(self.flows)} "
            f"duration={self.measured_duration:.1f}s "
            f"util={self.utilization:.2%} loss={self.aggregate_loss_rate:.4%}",
        ]
        for name, share in sorted(self.shares().items()):
            lines.append(f"  {name}: share={share:.2%} jfi={self.jfi(name):.3f}")
        health = getattr(self, "health", None)
        if health is not None:
            lines.append(f"  {health.describe()}")
        return "\n".join(lines)
