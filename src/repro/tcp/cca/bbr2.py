"""BBRv2 congestion control (simplified).

The paper evaluates BBRv1 and notes that "BBRv2 remains a work in
progress"; this module implements the *structural* BBRv2 changes that
matter for the paper's fairness questions, so users can extend the
sweeps to the successor algorithm (see the ``ext-bbr2`` entry of
``benchmarks/findings.py``):

- **loss responsiveness**: unlike v1, v2 reacts to loss events with a
  multiplicative cut (``BETA = 0.7``) and learns a volume-of-inflight
  upper bound ``inflight_hi`` from the level at which loss occurred;
- **time-based ProbeBW cycle**: DOWN -> CRUISE -> REFILL -> UP instead
  of v1's eight-phase gain cycle, probing for bandwidth only every
  couple of seconds instead of every eight round trips;
- **gentler ProbeRTT**: cwnd is halved (not dropped to four packets)
  and the probe interval is 5 s.

Deliberate simplifications vs the full draft (documented here so nobody
mistakes this for a complete BBRv2): no ECN support, no ``inflight_lo``
/ ``bw_lo`` short-term model, no full loss-rate bookkeeping per probe
round — the loss signal is the recovery-event hook the connection
already provides.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..rate_sample import RateSample
from .bbr import Bbr

if TYPE_CHECKING:  # pragma: no cover
    from ..connection import TcpSender

PROBE_DOWN = "PROBE_DOWN"
PROBE_CRUISE = "PROBE_CRUISE"
PROBE_REFILL = "PROBE_REFILL"
PROBE_UP = "PROBE_UP"


class Bbr2(Bbr):
    """Simplified BBRv2: BBRv1 skeleton + loss-bounded inflight model."""

    name = "bbr2"

    #: Multiplicative decrease applied to the inflight bound on loss.
    BETA = 0.7
    #: Baseline wait between bandwidth probes, seconds (draft: 2-3 s).
    PROBE_WAIT_BASE = 2.0
    #: ProbeRTT cadence for v2.
    RTPROP_FILTER_LEN = 5.0

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        super().__init__(rng=rng)
        self._probe_wait = self.PROBE_WAIT_BASE
        self._phase_stamp = 0.0

    # ------------------------------------------------------------------
    # ProbeBW: time-based DOWN/CRUISE/REFILL/UP cycle
    # ------------------------------------------------------------------

    def _enter_probe_bw(self, now: float) -> None:
        self.state = PROBE_DOWN
        self.cwnd_gain = 2.0
        self.pacing_gain = 0.9
        self._phase_stamp = now
        self._probe_wait = self.PROBE_WAIT_BASE + self._rng.uniform(0.0, 1.0)

    def _in_probe_bw(self) -> bool:
        return self.state in (PROBE_DOWN, PROBE_CRUISE, PROBE_REFILL, PROBE_UP)

    def _check_cycle_phase(self, rs: RateSample, now: float) -> None:
        if not self._in_probe_bw():
            return
        rtprop = self.rtprop if self.rtprop is not None else 0.05
        elapsed = now - self._phase_stamp
        if self.state == PROBE_DOWN:
            # Drain until inflight is back within the (reduced) target.
            if elapsed > rtprop and rs.prior_in_flight <= self.inflight_target(1.0):
                self.state = PROBE_CRUISE
                self.pacing_gain = 1.0
                self._phase_stamp = now
        elif self.state == PROBE_CRUISE:
            if elapsed > self._probe_wait:
                self.state = PROBE_REFILL
                self.pacing_gain = 1.0
                self.inflight_hi = max(self.inflight_hi, self.inflight_target(1.0))
                self._phase_stamp = now
        elif self.state == PROBE_REFILL:
            if elapsed > rtprop:
                self.state = PROBE_UP
                self.pacing_gain = 1.25
                self._phase_stamp = now
        elif self.state == PROBE_UP:
            hit_ceiling = rs.newly_lost > 0 or (
                self.inflight_hi < float("inf")
                and rs.prior_in_flight >= self.inflight_hi
            )
            if elapsed > rtprop and hit_ceiling:
                self.state = PROBE_DOWN
                self.pacing_gain = 0.9
                self._phase_stamp = now
                self._probe_wait = self.PROBE_WAIT_BASE + self._rng.uniform(0.0, 1.0)
            elif rs.newly_lost == 0 and elapsed > rtprop:
                # No loss at the current ceiling: raise it once per
                # round-trip of probing, bounded well above the 1-BDP
                # operating point so it stops constraining when the path
                # shows no loss at all.
                self._phase_stamp = now
                if self.inflight_hi < float("inf"):
                    self.inflight_hi = min(
                        self.inflight_hi * 1.25, self.inflight_target(4.0)
                    )

    # ------------------------------------------------------------------
    # Loss response (the defining v2 change)
    # ------------------------------------------------------------------

    def on_loss_event(self, conn: "TcpSender") -> None:
        super().on_loss_event(conn)
        level = max(float(conn.in_flight), self.MIN_PIPE_CWND)
        if self.inflight_hi == float("inf"):
            self.inflight_hi = level * self.BETA
        else:
            self.inflight_hi = max(
                min(self.inflight_hi, level) * self.BETA, self.MIN_PIPE_CWND
            )
        # v2 cuts cwnd multiplicatively rather than relying purely on
        # packet conservation.
        self.cwnd = max(self.cwnd * self.BETA, self.MIN_PIPE_CWND)
        if self._in_probe_bw():
            self.state = PROBE_DOWN
            self.pacing_gain = 0.9
            self._phase_stamp = conn.sim.now

    # ------------------------------------------------------------------
    # Gentler ProbeRTT
    # ------------------------------------------------------------------

    def _probe_rtt_cwnd(self) -> float:
        return max(self.bdp_packets(0.5), self.MIN_PIPE_CWND)

    def _handle_probe_rtt(self, rs: RateSample, conn: "TcpSender", now: float) -> None:
        conn.rate_estimator.mark_app_limited(conn.in_flight)
        floor = self._probe_rtt_cwnd()
        if self.probe_rtt_done_stamp is None:
            if conn.in_flight <= floor + 1:
                self.probe_rtt_done_stamp = now + self.PROBE_RTT_DURATION
                self.probe_rtt_round_done = False
                self.next_round_delivered = conn.rate_estimator.delivered
            return
        if self.round_start:
            self.probe_rtt_round_done = True
        if self.probe_rtt_round_done and now > self.probe_rtt_done_stamp:
            self.rtprop_stamp = now
            self._restore_cwnd()
            self._exit_probe_rtt(now)

    def _check_probe_rtt(self, rs: RateSample, conn: "TcpSender", now: float) -> None:
        if self.state != "PROBE_RTT" and self.rtprop_expired and self.rtprop is not None:
            self._enter_probe_rtt()
        if self.state == "PROBE_RTT":
            self._handle_probe_rtt(rs, conn, now)
            self.cwnd = min(self.cwnd, max(self._probe_rtt_cwnd(), self.MIN_PIPE_CWND))
