"""Gilbert–Elliott two-state burst-loss channel.

The classic correlated-loss model (Gilbert 1960, Elliott 1963): the
channel is a two-state Markov chain advanced once per packet. In the
*good* state packets survive; in the *bad* state each packet is dropped
with a high probability, producing the loss *bursts* that distinguish real drop-tail
dynamics from the i.i.d.-loss assumption behind the Mathis model — the
exact distinction the paper's F3 loss-vs-halving-rate analysis probes.

The model implements the :class:`repro.sim.link.LossModel` protocol and
attaches to the bottleneck :class:`~repro.sim.link.Link` via its
``loss_model`` hook. All randomness comes from the injected RNG, which the fault layer derives
from the scenario seed, so burst patterns are reproducible.
"""

from __future__ import annotations

import random

from ..sim.packet import Packet


class GilbertElliott:
    """Per-packet two-state Markov loss process.

    Parameters
    ----------
    p_enter:
        Per-packet probability of moving good -> bad.
    p_exit:
        Per-packet probability of moving bad -> good. Expected burst
        length is ``1 / p_exit`` packets.
    loss_bad:
        Drop probability while in the bad state (classic Gilbert uses
        1.0; values below 1 give the "Gilbert–Elliott" generalisation).
    rng:
        Seeded RNG; required so burst patterns stay reproducible.
    """

    def __init__(
        self,
        p_enter: float,
        p_exit: float,
        loss_bad: float,
        rng: random.Random,
    ) -> None:
        if not 0.0 < p_enter <= 1.0 or not 0.0 < p_exit <= 1.0:
            raise ValueError("transition probabilities must be in (0, 1]")
        if not 0.0 < loss_bad <= 1.0:
            raise ValueError("loss_bad must be in (0, 1]")
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.loss_bad = loss_bad
        self.bad = False
        self.drops = 0
        self.packets_seen = 0
        self.bursts = 0
        self._rng = rng

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run expected loss rate of the chain (for sizing faults)."""
        time_bad = self.p_enter / (self.p_enter + self.p_exit)
        return time_bad * self.loss_bad

    def should_drop(self, packet: Packet) -> bool:
        """Advance the chain one packet and decide this packet's fate."""
        self.packets_seen += 1
        if self.bad:
            if self._rng.random() < self.p_exit:
                self.bad = False
        else:
            if self._rng.random() < self.p_enter:
                self.bad = True
                self.bursts += 1
        # The good state never drops, so it makes no draw.
        if self.bad and self._rng.random() < self.loss_bad:
            self.drops += 1
            return True
        return False
