"""Fairness metrics.

Jain's Fairness Index (Jain, Chiu & Hawe 1984) is the paper's fairness
metric for Findings 4 and 5: JFI = (sum x)^2 / (n * sum x^2), ranging
from 1/n (one flow takes everything) to 1 (perfectly equal shares).
"""

from __future__ import annotations

from typing import Sequence


def jains_fairness_index(allocations: Sequence[float]) -> float:
    """Jain's Fairness Index of a set of throughput allocations.

    Raises ``ValueError`` on an empty input or on negative allocations;
    returns 1.0 when every allocation is zero (no flow is disadvantaged
    relative to another).
    """
    if not allocations:
        raise ValueError("JFI of an empty allocation set is undefined")
    if any(x < 0 for x in allocations):
        raise ValueError("allocations must be non-negative")
    total = sum(allocations)
    squares = sum(x * x for x in allocations)
    if total == 0 or squares == 0.0:
        # All-zero allocations, or subnormal values whose squares
        # underflow to zero — no flow is measurably disadvantaged.
        return 1.0
    n = len(allocations)
    return min(1.0, (total * total) / (n * squares))
