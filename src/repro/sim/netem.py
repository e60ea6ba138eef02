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
    rng:
        The element's RNG. Callers on the experiment path derive this
        from the scenario/flow seed (see ``build_dumbbell``); when
        omitted, a seed is drawn from the owning simulator's
        deterministic seed stream (:meth:`Simulator.next_seed`) so that
        two elements never share a sequence. (Previously every default
        instance used the same fixed seed, which perfectly correlated
        jitter across flows.)

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
        sink: Optional[Sink] = None,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        if jitter > delay:
            raise ValueError("jitter must not exceed the base delay")
        self.sim = sim
        self.delay = delay
        self.jitter = jitter
        self.sink = sink
        self._rng = rng or random.Random(sim.next_seed(0x4E45))
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
        sink = self.sink
        if sink is None:
            raise RuntimeError("NetemDelay has no sink attached")
        delay = self.delay
        jitter = self.jitter
        if jitter > 0.0:
            # random.Random.uniform(-jitter, jitter) spelled out with
            # CPython's own arithmetic, a + (b - a) * random(): same
            # draw, same rounding, one call less.
            delay += -jitter + (jitter - -jitter) * self._rng.random()
        # <= rather than ==: the constructor guarantees delay >= 0, and an
        # ordering guard keeps the fast path safe against float noise.
        if delay <= 0.0:
            sink.send(packet)
        else:
            at = self.sim.now + delay
            if self._sanitizer is not None:
                self._sanitizer.on_schedule(at)
            heappush(self._heap, [at, self._next_seq(), sink.send, (packet,)])
