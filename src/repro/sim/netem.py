"""netem-style delay element.

The paper sets each flow's base RTT by adding delay with Linux ``netem``
at the receiver. :class:`NetemDelay` reproduces that: a per-flow element
adding constant delay and optional jitter (the paper uses pure delay;
jitter is an extension that desynchronises flows). It is the only
pure-delay element: the edge links never congest, so they need no
element of their own, and channel loss attaches to the bottleneck
:class:`~repro.sim.link.Link`, not here.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Optional

from .engine import Simulator
from .link import Sink
from .packet import Packet


class NetemDelay:
    """Constant extra delay with optional uniform jitter.

    Parameters
    ----------
    delay:
        Base one-way delay added to every packet, seconds.
    jitter:
        If non-zero, each packet's delay is drawn uniformly from
        ``[delay - jitter, delay + jitter]``. Packet reordering is
        possible under jitter, exactly as with real netem without
        reorder protection.
    sink:
        Where each packet goes after its delay. Required: the element is
        built after its sink, so forwarding never tests for a missing one.
    rng:
        The jitter RNG, required when ``jitter`` is non-zero (a
        ``ValueError`` otherwise). ``build_dumbbell`` derives one per
        flow from the scenario/flow seed, so no two elements share a
        jitter sequence. An element without jitter draws nothing.

    A zero-delay, zero-jitter element forwards synchronously, without a
    heap event.
    """

    __slots__ = (
        "sim", "delay", "jitter", "sink", "_rng", "_sanitizer", "_heap", "_next_seq",
    )

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink: Sink,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        if jitter > delay:
            raise ValueError("jitter must not exceed the base delay")
        if jitter > 0 and rng is None:
            raise ValueError("jitter needs an rng")
        self.sim = sim
        self.delay = delay
        self.jitter = jitter
        self.sink = sink
        # Read only while jitter > 0, which the check above ties to an
        # rng; set_delay can lower the jitter but never raise it.
        self._rng = rng
        # Each delayed packet is pushed onto the simulator's heap
        # directly, with a sequence number from its shared stream (see
        # the design notes in repro.sim.engine).
        self._sanitizer = sim.sanitizer
        self._heap = sim._heap
        self._next_seq = sim.next_seq

    def set_delay(self, delay: float) -> None:
        """Change the base delay (fault-injection hook: RTT step/spike).

        The jitter is clamped to the new delay, preserving the
        construction-time invariant. Packets already in flight keep the
        delay they were scheduled with.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay
        self.jitter = min(self.jitter, delay)

    def send(self, packet: Packet) -> None:
        delay = self.delay
        jitter = self.jitter
        if jitter > 0.0:
            # random.Random.uniform(-jitter, jitter) spelled out with
            # CPython's own arithmetic, a + (b - a) * random(): same
            # draw, same rounding, one call less.
            delay += -jitter + (jitter - -jitter) * self._rng.random()  # type: ignore[union-attr]
        # <= rather than ==: the constructor guarantees delay >= 0, and an
        # ordering guard keeps the fast path safe against float noise.
        if delay <= 0.0:
            self.sink.send(packet)
        else:
            at = self.sim.now + delay
            if self._sanitizer is not None:
                self._sanitizer.on_schedule(at)
            heappush(self._heap, [at, self._next_seq(), self.sink.send, (packet,)])
