"""Dynamic workloads: flow arrivals, departures, and completion times.

The paper's §3.2 fixes its workload to long-running flows and lists
"arrival and departures of new flows" among the dynamics it deliberately
controls away. This module provides that missing axis as an extension:
finite-size flows arriving as a Poisson process, with per-flow
completion times (FCT) measured — letting users study how the paper's
fairness conclusions translate to a churning flow population.

Implementation note: arrivals are materialised up front (the arrival
process does not depend on network state), so the existing dumbbell
builder and sender completion machinery do all the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..sim.engine import Simulator
from ..sim.topology import FlowSpec, build_dumbbell
from ..tcp.cca import make_cca
from ..units import DATA_PACKET_BYTES
from .scenarios import FlowGroup


def poisson_arrivals(
    rate_per_s: float, duration: float, rng: random.Random
) -> List[float]:
    """Arrival times of a Poisson process over ``[0, duration)``."""
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    times: List[float] = []
    t = rng.expovariate(rate_per_s)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate_per_s)
    return times


@dataclass
class DynamicWorkload:
    """A churning-flow workload description.

    ``flow_size_packets`` is the mean of a geometric size distribution
    (heavy-tailed enough to exercise short/long flow interaction while
    staying simple); ``cca_mix`` assigns CCAs round-robin by weight.
    """

    bottleneck_bw_bps: float
    buffer_bytes: int
    arrival_rate_per_s: float
    flow_size_packets: int = 200
    cca_mix: Sequence[FlowGroup] = (FlowGroup("newreno", 1),)
    rtt: float = 0.020
    duration: float = 30.0
    seed: int = 1

    def offered_load(self) -> float:
        """Offered load as a fraction of bottleneck capacity."""
        bits_per_flow = self.flow_size_packets * DATA_PACKET_BYTES * 8
        return self.arrival_rate_per_s * bits_per_flow / self.bottleneck_bw_bps


@dataclass
class DynamicFlowResult:
    flow_id: int
    cca: str
    size_packets: int
    start_time: float
    completion_time: Optional[float]  # None if still running at the end

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time, or ``None`` if unfinished."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time


@dataclass
class DynamicResult:
    workload: DynamicWorkload
    flows: List[DynamicFlowResult] = field(default_factory=list)

    def completed(self) -> List[DynamicFlowResult]:
        return [f for f in self.flows if f.completion_time is not None]

    def fcts(self) -> List[float]:
        return [f.fct for f in self.completed()]

    def completion_fraction(self) -> float:
        if not self.flows:
            return 1.0
        return len(self.completed()) / len(self.flows)

    def fcts_by_cca(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for f in self.completed():
            out.setdefault(f.cca, []).append(f.fct)
        return out


def run_dynamic_workload(workload: DynamicWorkload) -> DynamicResult:
    """Simulate the workload and return per-flow completion times."""
    rng = random.Random(workload.seed)
    arrivals = poisson_arrivals(
        workload.arrival_rate_per_s, workload.duration, rng
    )
    if not arrivals:
        return DynamicResult(workload)
    # Round-robin CCA assignment weighted by the mix counts.
    cca_cycle: List[str] = []
    for group in workload.cca_mix:
        cca_cycle.extend([group.cca] * group.count)
    if not cca_cycle:
        raise ValueError("cca_mix must name at least one CCA")

    sim = Simulator()
    specs: List[FlowSpec] = []
    sizes: List[int] = []
    ccas: List[str] = []
    for i, start in enumerate(arrivals):
        size = max(1, int(rng.expovariate(1.0 / workload.flow_size_packets)))
        cca_name = cca_cycle[i % len(cca_cycle)]
        specs.append(
            FlowSpec(
                cca=make_cca(cca_name, rng),
                rtt=workload.rtt,
                start_time=start,
                total_packets=size,
                jitter=0.02 * workload.rtt,
                jitter_seed=rng.getrandbits(32),
            )
        )
        sizes.append(size)
        ccas.append(cca_name)

    dumbbell = build_dumbbell(
        sim,
        specs,
        bottleneck_bw_bps=workload.bottleneck_bw_bps,
        buffer_bytes=workload.buffer_bytes,
    )
    completion_times: Dict[int, float] = {}
    for flow in dumbbell.flows:
        flow.sender.completion_listener = (
            lambda sender, _sim=sim: completion_times.__setitem__(
                sender.flow_id, _sim.now
            )
        )
    dumbbell.start_all()
    sim.run(until=workload.duration)

    result = DynamicResult(workload)
    for flow, size, cca_name in zip(dumbbell.flows, sizes, ccas):
        result.flows.append(
            DynamicFlowResult(
                flow_id=flow.flow_id,
                cca=cca_name,
                size_packets=size,
                start_time=flow.spec.start_time,
                completion_time=completion_times.get(flow.flow_id),
            )
        )
    return result
