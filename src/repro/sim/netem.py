"""netem-style impairment element.

The paper sets each flow's base RTT by adding delay with Linux ``netem``
at the receiver. :class:`NetemDelay` reproduces that: a per-flow element
adding constant delay, optional jitter, and optional random loss (the
paper uses pure delay; jitter/loss are extensions for sensitivity
studies).
"""

from __future__ import annotations

import random
from typing import Optional

from .engine import Simulator
from .link import LossModel, Sink
from .packet import Packet


class NetemDelay:
    """Constant extra delay with optional uniform jitter and random loss.

    Parameters
    ----------
    delay:
        Base one-way delay added to every packet, seconds.
    jitter:
        If non-zero, each packet's delay is drawn uniformly from
        ``[delay - jitter, delay + jitter]``. Packet reordering is
        possible under jitter, exactly as with real netem without
        reorder protection.
    loss_rate:
        Probability in [0, 1) of silently dropping each packet.
    rng:
        The element's RNG. Callers on the experiment path derive this
        from the scenario/flow seed (see ``build_dumbbell``); when
        omitted, a seed is drawn from the owning simulator's
        deterministic seed stream (:meth:`Simulator.next_seed`) so that
        two elements never share a sequence. (Previously every default
        instance used the same fixed seed, which perfectly correlated
        loss/jitter across flows.)
    """

    __slots__ = (
        "sim",
        "delay",
        "jitter",
        "loss_rate",
        "sink",
        "dropped_packets",
        "loss_model",
        "_rng",
        "_schedule",
    )

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: Optional[Sink] = None,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        if jitter > delay:
            raise ValueError("jitter must not exceed the base delay")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.delay = delay
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.sink = sink
        self.dropped_packets = 0
        #: Channel-loss element (e.g. Gilbert–Elliott burst loss),
        #: consulted before the independent ``loss_rate`` draw.
        self.loss_model: Optional[LossModel] = None
        self._rng = rng or random.Random(sim.next_seed(0x4E45))
        # Bound-method fast path (see DelayLink): the element schedules
        # once per forwarded packet.
        self._schedule = sim.schedule

    def set_delay(self, delay: float, jitter: Optional[float] = None) -> None:
        """Change the base delay (fault-injection hook: RTT step/spike).

        ``jitter`` defaults to the current jitter clamped to the new
        delay, preserving the construction-time invariant. Packets
        already in flight keep the delay they were scheduled with.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if jitter is None:
            jitter = min(self.jitter, delay)
        if jitter < 0 or jitter > delay:
            raise ValueError("jitter must be in [0, delay]")
        self.delay = delay
        self.jitter = jitter

    def send(self, packet: Packet) -> None:
        if self.sink is None:
            raise RuntimeError("NetemDelay has no sink attached")
        if self.loss_model is not None and self.loss_model.should_drop(packet):
            self.dropped_packets += 1
            return
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped_packets += 1
            return
        delay = self.delay
        jitter = self.jitter
        if jitter > 0.0:
            # random.Random.uniform(-jitter, jitter) spelled out with
            # CPython's own arithmetic, a + (b - a) * random(): same
            # draw, same rounding, one call less.
            delay += -jitter + (jitter - -jitter) * self._rng.random()
        if delay <= 0.0:
            self.sink.send(packet)
        else:
            self._schedule(delay, self.sink.send, packet)
