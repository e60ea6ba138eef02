"""Dumbbell topology builder.

Reconstructs the paper's testbed (Figure 1): sender/receiver node pairs
on either side of a single bottleneck — the BESS software switch in the
paper, a rate-limited :class:`repro.sim.link.Link` with a drop-tail
queue here. Edge links are uncongested by construction (25 Gbps in the
paper), so they get no element: the bottleneck hands each packet to its
receiver when it admits the packet, with the time its serialisation
completes, and the whole per-flow base RTT is a netem-style delay
element on the ACK path, where the paper inserts netem (at the
receiver). The receiver only compares arrival times with each other,
so carrying the forward propagation on the ACK path leaves the
sender's timeline unchanged and saves one event per data packet; the
analytic bottleneck saves the other. Receivers therefore run ahead of
the clock by at most the bottleneck's queueing delay.

The builder wires one :class:`~repro.tcp.connection.TcpSender` /
:class:`~repro.tcp.connection.TcpReceiver` pair per flow and returns a
:class:`Dumbbell` handle exposing the bottleneck queue and the flows.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..tcp.cca.base import CongestionControl
from ..tcp.connection import TcpReceiver, TcpSender
from .engine import Simulator
from .link import Link
from .netem import NetemDelay
from .queue import Queue


@dataclass
class FlowSpec:
    """Configuration for one flow in the dumbbell.

    ``rtt`` is the flow's base (uncongested) round-trip time; the
    builder puts all of it on the netem delay of the ACK path.
    ``start_time`` implements the paper's staggered flow arrival.
    ``total_packets=None`` gives the paper's infinite ("long-running")
    flows.
    """

    cca: CongestionControl
    rtt: float = 0.020
    start_time: float = 0.0
    total_packets: Optional[int] = None
    #: Uniform +/- jitter applied by the netem element on the ACK path.
    #: Physical testbeds have inherent timing noise that desynchronises
    #: flows; a deterministic simulator needs a little injected jitter to
    #: avoid drop-tail phase-locking artifacts (the classic ns-2 issue).
    jitter: float = 0.0
    #: Seed for this flow's netem RNG (derived by the builder if None).
    jitter_seed: Optional[int] = None


@dataclass
class Flow:
    """A wired-up sender/receiver pair."""

    flow_id: int
    spec: FlowSpec
    sender: TcpSender
    receiver: TcpReceiver


@dataclass
class Dumbbell:
    """The built topology: bottleneck link plus all flows."""

    sim: Simulator
    bottleneck: Link
    flows: List[Flow] = field(default_factory=list)

    @property
    def queue(self) -> Queue:
        return self.bottleneck.queue

    def start_all(self) -> None:
        """Start every flow at its configured start time."""
        for flow in self.flows:
            flow.sender.start(at=flow.spec.start_time)


def build_dumbbell(
    sim: Simulator,
    flow_specs: Sequence[FlowSpec],
    bottleneck_bw_bps: float,
    queue: Queue,
    delayed_ack: bool = True,
) -> Dumbbell:
    """Build the paper's dumbbell for the given flows.

    Parameters
    ----------
    flow_specs:
        One :class:`FlowSpec` per flow. Each flow's base RTT must be
        positive.
    bottleneck_bw_bps:
        Bottleneck link rate (the paper varies this between 100 Mbps and
        10 Gbps).
    queue:
        The bottleneck queue: its discipline and buffer size (the paper
        uses drop-tail at ~1 BDP at 200 ms).
    """
    if not flow_specs:
        raise ValueError("at least one flow is required")
    bottleneck = Link(sim, rate_bps=bottleneck_bw_bps, queue=queue)
    # The bottleneck delivers straight to each flow's receiver, with the
    # departure time: routes[flow_id] is that receiver's bound send.
    routes = bottleneck.routes
    dumbbell = Dumbbell(sim=sim, bottleneck=bottleneck)
    for flow_id, spec in enumerate(flow_specs):
        if spec.rtt <= 0:
            raise ValueError(f"flow {flow_id}: rtt {spec.rtt} must be positive")
        # Each element is built after the one it hands packets to, so
        # none is ever without its next hop. Forward path: sender ->
        # bottleneck -> receiver, with no propagation delay.
        sender = TcpSender(
            sim, flow_id, spec.cca, bottleneck, total_packets=spec.total_packets
        )
        # Reverse path: one netem element carrying the flow's whole base
        # RTT, both directions' propagation (paper: netem at the
        # receiver sets the base RTT).
        reverse = NetemDelay(
            sim,
            spec.rtt,
            sender,
            jitter=min(spec.jitter, spec.rtt),
            rng=random.Random(
                spec.jitter_seed if spec.jitter_seed is not None else flow_id
            ),
        )
        receiver = TcpReceiver(sim, flow_id, reverse, delayed_ack=delayed_ack)
        routes.append(receiver.send)
        dumbbell.flows.append(Flow(flow_id, spec, sender, receiver))
    return dumbbell
