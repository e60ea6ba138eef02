"""Throughput share and loss/halving-ratio analyses.

Covers the aggregation the paper's fairness figures report: the share of
total throughput obtained by each CCA group (Figures 5-8) and the
packet-loss-to-CWND-halving ratio (Figure 3).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Mapping


def group_shares(
    goodputs: Mapping[int, float], groups: Mapping[int, str]
) -> Dict[str, float]:
    """Fraction of total goodput obtained by each flow group.

    Parameters
    ----------
    goodputs:
        Per-flow goodput keyed by flow id.
    groups:
        Flow id -> group label (typically the CCA name).
    """
    totals: Dict[str, float] = defaultdict(float)
    for flow_id, goodput in goodputs.items():
        totals[groups[flow_id]] += goodput
    grand_total = sum(totals.values())
    if grand_total == 0:
        return {name: 0.0 for name in totals}
    return {name: value / grand_total for name, value in totals.items()}


def loss_to_halving_ratio(total_losses: int, total_halvings: int) -> float:
    """Packets lost per window-reduction event (Figure 3's y-axis).

    The paper finds ~1.7 at EdgeScale and 6-9 at CoreScale — burst drops
    at scale cost several packets per single congestion response.
    """
    if total_halvings <= 0:
        raise ValueError("no congestion events observed")
    if total_losses < 0:
        raise ValueError("negative loss count")
    return total_losses / total_halvings
