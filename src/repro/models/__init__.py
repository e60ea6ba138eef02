"""Analytic CCA throughput models evaluated by the paper."""

from __future__ import annotations

from .cubic_model import cubic_constant, cubic_throughput
from .mathis import MATHIS_C_DELAYED_SACK, derive_constant, mathis_throughput
from .padhye import padhye_throughput

__all__ = [
    "mathis_throughput",
    "derive_constant",
    "MATHIS_C_DELAYED_SACK",
    "padhye_throughput",
    "cubic_throughput",
    "cubic_constant",
]
