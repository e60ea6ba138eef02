"""Scenario definitions: the paper's EdgeScale and CoreScale settings.

A :class:`Scenario` is a declarative, picklable description of one
experiment: bottleneck, buffer, flow groups (CCA x count x RTT),
durations and seed. The presets mirror the paper's §3.1:

- **EdgeScale** — 100 Mbps bottleneck, 2-50 flows, 3 MB buffer;
- **CoreScale** — 10 Gbps bottleneck, 1000-5000 flows, 375 MB buffer
  (~1 BDP at an assumed maximum RTT of 200 ms).

Because packet-level simulation of the full CoreScale point is
impractical in pure Python, :func:`core_scale` takes a ``scale`` divisor
applied to both bandwidth and flow count, preserving the per-flow fair
share and the buffer-per-BDP ratio — the two dimensionless quantities
the paper identifies as the operative variables (see DESIGN.md §3).
``scale=1`` gives the paper's literal parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from ..faults.schedule import FaultEvent
from ..units import bdp_bytes, gbps, mbps, megabytes

#: Default scale divisor for CoreScale runs (10 Gbps/25 = 400 Mbps,
#: 1000-5000 flows -> 40-200 flows; per-flow share preserved).
DEFAULT_CORE_SCALE = 25


@dataclass(frozen=True)
class FlowGroup:
    """A set of identical flows: CCA name, flow count, base RTT."""

    cca: str
    count: int
    rtt: float = 0.020

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("flow count must be >= 1")
        if self.rtt <= 0:
            raise ValueError("rtt must be positive")


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible experiment description."""

    name: str
    bottleneck_bw_bps: float
    buffer_bytes: int
    groups: Tuple[FlowGroup, ...]
    duration: float = 30.0
    warmup: float = 8.0
    stagger_max: float = 5.0
    seed: int = 1
    delayed_ack: bool = True
    use_red_queue: bool = False
    #: ACK-path netem jitter as a fraction of each flow's base RTT.
    #: Breaks the drop-tail phase-locking a deterministic simulator
    #: otherwise exhibits (physical testbeds desynchronise naturally).
    ack_jitter_fraction: float = 0.02
    #: Deterministic fault schedule applied during the run (see
    #: :mod:`repro.faults`). Part of the scenario — and therefore of the
    #: run-store cache key, which hashes ``dataclasses.asdict`` of the
    #: scenario — because faults change the result.
    faults: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.bottleneck_bw_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.buffer_bytes <= 0:
            raise ValueError("buffer must be positive")
        if not self.groups:
            raise ValueError("at least one flow group is required")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("require 0 <= warmup < duration")
        if self.stagger_max < 0:
            raise ValueError("stagger_max must be non-negative")
        if not 0.0 <= self.ack_jitter_fraction < 1.0:
            raise ValueError("ack_jitter_fraction must be in [0, 1)")
        for event in self.faults:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"faults must be FaultEvent instances, got {event!r}")
            if event.time >= self.duration:
                raise ValueError(
                    f"fault {event.describe()!r} starts at t={event.time:g}s, "
                    f"beyond the {self.duration:g}s run"
                )

    @property
    def total_flows(self) -> int:
        return sum(g.count for g in self.groups)

    def with_overrides(self, **kwargs) -> "Scenario":
        """A copy of this scenario with some fields replaced."""
        return replace(self, **kwargs)


def edge_scale(
    flows: int = 10,
    cca: str = "newreno",
    rtt: float = 0.020,
    duration: float = 30.0,
    warmup: float = 8.0,
    seed: int = 1,
) -> Scenario:
    """The paper's EdgeScale: 100 Mbps, 3 MB drop-tail buffer."""
    return Scenario(
        name=f"edge-{cca}-{flows}f-{int(rtt * 1000)}ms",
        bottleneck_bw_bps=mbps(100),
        buffer_bytes=megabytes(3),
        groups=(FlowGroup(cca, flows, rtt),),
        duration=duration,
        warmup=warmup,
        stagger_max=min(5.0, warmup * 0.6),
        seed=seed,
    )


def core_scale(
    flows: int = 1000,
    cca: str = "newreno",
    rtt: float = 0.020,
    scale: int = DEFAULT_CORE_SCALE,
    duration: float = 30.0,
    warmup: float = 8.0,
    seed: int = 1,
) -> Scenario:
    """The paper's CoreScale: 10 Gbps, 375 MB buffer — divided by ``scale``.

    ``flows`` is the paper's flow count (1000-5000); the scenario runs
    ``flows // scale`` flows on a ``10 Gbps / scale`` link with a
    1-BDP-at-200 ms buffer of the scaled link, keeping per-flow share
    and buffer/BDP identical to the paper's operating point.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if flows % scale:
        raise ValueError(f"flows={flows} not divisible by scale={scale}")
    bw = gbps(10) / scale
    return Scenario(
        name=f"core-{cca}-{flows}f-{int(rtt * 1000)}ms-s{scale}",
        bottleneck_bw_bps=bw,
        buffer_bytes=bdp_bytes(bw, 0.200),
        groups=(FlowGroup(cca, flows // scale, rtt),),
        duration=duration,
        warmup=warmup,
        stagger_max=min(5.0, warmup * 0.6),
        seed=seed,
    )
