"""Congestion control algorithms.

Provides the three CCAs the paper evaluates (NewReno, Cubic, BBRv1) plus
BBRv2 as an extension, and :func:`make_cca`, the one name-based factory:
``run_experiment`` builds every flow's CCA through it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from .base import CongestionControl
from .bbr import Bbr
from .bbr2 import Bbr2
from .cubic import Cubic
from .newreno import NewReno

#: Registry mapping each CCA's one name to its zero-argument factory.
#: There are no aliases: the name is part of the scenario, so it keys
#: the run store and labels the result's shares.
CCA_REGISTRY: Dict[str, Callable[[], CongestionControl]] = {
    NewReno.name: NewReno,
    Cubic.name: Cubic,
    Bbr.name: Bbr,
    Bbr2.name: Bbr2,
}


def make_cca(name: str, rng: Optional[random.Random] = None) -> CongestionControl:
    """Instantiate a CCA by name (e.g. ``"newreno"``, ``"cubic"``, ``"bbr"``).

    With ``rng``, the stochastic CCAs (BBR, BBRv2) get their own RNG
    seeded by one ``rng.getrandbits(32)`` draw; the others draw nothing.
    Every golden digest depends on this draw order.
    """
    try:
        factory = CCA_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(CCA_REGISTRY))
        raise ValueError(f"unknown CCA {name!r}; known: {known}") from None
    if rng is not None and factory in (Bbr, Bbr2):
        return factory(rng=random.Random(rng.getrandbits(32)))
    return factory()


__all__ = [
    "CongestionControl",
    "NewReno",
    "Cubic",
    "Bbr",
    "Bbr2",
    "CCA_REGISTRY",
    "make_cca",
]
