"""Mathis model fitting and validation against measured flows.

Implements the paper's Table 1 / Figure 2 methodology: given the
per-flow measurements of an experiment (goodput, RTT, loss rate, CWND
halving rate), derive the best-fit Mathis constant under each
interpretation of ``p`` and compute per-flow prediction errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..models.mathis import derive_constant, mathis_throughput
from .stats import median


@dataclass
class FlowObservation:
    """One flow's measured quantities over the measurement window."""

    goodput_bps: float
    rtt_s: float
    loss_rate: float
    halving_rate: float  # congestion events per delivered packet

    def p(self, interpretation: str) -> float:
        """The value of Mathis ``p`` under an interpretation of the model."""
        if interpretation == "loss":
            return self.loss_rate
        if interpretation == "halving":
            return self.halving_rate
        raise ValueError(f"unknown interpretation {interpretation!r}")


@dataclass
class MathisFit:
    """Result of fitting the Mathis constant to a set of flows."""

    interpretation: str
    constant: float
    per_flow_errors: List[float]

    @property
    def median_error(self) -> float:
        """Median relative prediction error across flows."""
        return median(self.per_flow_errors)


def fit_mathis(
    observations: Sequence[FlowObservation],
    interpretation: str,
    mss_bytes: int,
) -> MathisFit:
    """Derive the best-fit constant and per-flow errors (Table 1 / Fig 2).

    Flows with ``p == 0`` (no events observed) are excluded, matching
    the model's domain.
    """
    usable = [o for o in observations if o.p(interpretation) > 0 and o.goodput_bps > 0]
    if not usable:
        raise ValueError("no usable observations")
    constant = derive_constant(
        [o.goodput_bps for o in usable],
        [o.rtt_s for o in usable],
        [o.p(interpretation) for o in usable],
        mss_bytes,
    )
    errors = []
    for o in usable:
        predicted = mathis_throughput(mss_bytes, o.rtt_s, o.p(interpretation), constant)
        errors.append(abs(predicted - o.goodput_bps) / o.goodput_bps)
    return MathisFit(interpretation, constant, errors)
