"""CUBIC steady-state throughput model (Ha, Rhee & Xu 2008 / RFC 8312).

Average-window analysis of the cubic growth cycle yields

    T = MSS * (C*(3+beta) / (4*(1-beta)))^(1/4) / (RTT^(1/4) * p^(3/4))

where C = 0.4 and beta = 0.7 (so the leading constant is ~1.054). Note
the weaker RTT dependence (power 1/4 vs Mathis' power 1) — the source of
CUBIC's improved RTT fairness and of its advantage over NewReno in the
paper's Figure 5 competition experiments.
"""

from __future__ import annotations


def cubic_constant(c: float = 0.4, beta: float = 0.7) -> float:
    """Leading constant of the CUBIC response function."""
    if c <= 0 or not 0.0 < beta < 1.0:
        raise ValueError("require c > 0 and beta in (0, 1)")
    return (c * (3.0 + beta) / (4.0 * (1.0 - beta))) ** 0.25


def cubic_throughput(
    mss_bytes: int,
    rtt_s: float,
    p: float,
    c: float = 0.4,
    beta: float = 0.7,
) -> float:
    """Predicted CUBIC throughput in bits/second (cubic-dominated regime)."""
    if rtt_s <= 0:
        raise ValueError("rtt must be positive")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    k = cubic_constant(c, beta)
    rate_pps = k / (rtt_s ** 0.25 * p ** 0.75)
    return rate_pps * mss_bytes * 8.0
