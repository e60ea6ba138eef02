"""BBRv1 congestion control (Cardwell et al.).

Implements the state machine from draft-cardwell-iccrg-bbr-congestion-
control-00 (the "BBRv1" the paper evaluates): STARTUP / DRAIN /
PROBE_BW / PROBE_RTT, a windowed-max bottleneck-bandwidth filter over 10
round trips, a 10-second min-RTT filter with ProbeRTT refresh, pacing at
``pacing_gain * BtlBw``, and a cwnd cap of ``cwnd_gain * BDP`` (plus the
Linux-style 3-packet quantization budget, which matters in the paper's
CoreScale regime where per-flow BDP is only a few packets).

Loss handling follows the draft's modulations: one round of packet
conservation on entering recovery, cwnd = 1 after an RTO, and restoring
the saved cwnd when recovery ends — BBR otherwise ignores loss, which is
exactly the property behind the paper's Findings 6 and 7.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ...units import DATA_PACKET_BYTES
from ..rate_sample import RateSample
from .base import CongestionControl
from .filters import WindowedFilter

if TYPE_CHECKING:  # pragma: no cover
    from ..connection import TcpSender

STARTUP = "STARTUP"
DRAIN = "DRAIN"
PROBE_BW = "PROBE_BW"
PROBE_RTT = "PROBE_RTT"


class Bbr(CongestionControl):
    """BBRv1 per the IETF draft."""

    name = "bbr"

    #: 2/ln(2): fastest gain that still allows bandwidth doubling per round.
    HIGH_GAIN = 2.885
    #: ProbeBW pacing-gain cycle (draft §4.3.4.2).
    GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    #: BtlBw max-filter length, in round trips.
    BTLBW_FILTER_LEN = 10
    #: RTprop min-filter length, seconds.
    RTPROP_FILTER_LEN = 10.0
    #: Time spent at minimal cwnd in PROBE_RTT.
    PROBE_RTT_DURATION = 0.2
    #: Minimal cwnd (packets) BBR will ever use.
    MIN_PIPE_CWND = 4.0
    #: Quantization budget added to the inflight target (Linux adds
    #: 3 * TSO-quantum; with no offload the quantum is one packet).
    QUANTIZATION_BUDGET = 3.0

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        super().__init__()
        self._rng = rng or random.Random(0xBB12)
        # Filters and estimates.
        self.btlbw_filter = WindowedFilter(self.BTLBW_FILTER_LEN, mode="max")
        self.btlbw: Optional[float] = None  # packets / second
        self.rtprop: Optional[float] = None
        self.rtprop_stamp = 0.0
        self.rtprop_expired = False
        # Round counting.
        self.round_count = 0
        self.round_start = False
        self.next_round_delivered = 0
        # Startup full-pipe detection.
        self.filled_pipe = False
        self.full_bw = 0.0
        self.full_bw_count = 0
        # State machine.
        self.state = STARTUP
        self.pacing_gain = self.HIGH_GAIN
        self.cwnd_gain = self.HIGH_GAIN
        self.cycle_index = 0
        self.cycle_stamp = 0.0
        # ProbeRTT.
        self.probe_rtt_done_stamp: Optional[float] = None
        self.probe_rtt_round_done = False
        # Recovery modulation.
        self.packet_conservation = False
        self.prior_cwnd = 0.0
        self._in_recovery = False

        self.cwnd = self.INITIAL_CWND

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def pacing_rate(self) -> Optional[float]:  # type: ignore[override]
        """Pacing rate in bits/second."""
        bw = self.btlbw
        if bw is None:
            # Bootstrap: pace the initial window over the (unknown) RTT,
            # assuming 1 ms until a measurement exists (draft §4.2.1).
            rtt = self.rtprop if self.rtprop else 0.001
            bw = self.INITIAL_CWND / rtt
        return self.pacing_gain * bw * DATA_PACKET_BYTES * 8.0

    def bdp_packets(self, gain: float = 1.0) -> float:
        """BDP estimate scaled by ``gain``, in packets."""
        if self.btlbw is None or self.rtprop is None:
            return self.INITIAL_CWND
        return gain * self.btlbw * self.rtprop

    def inflight_target(self, gain: float) -> float:
        """The inflight level BBR aims for at a given gain (draft BBRInflight)."""
        if self.btlbw is None or self.rtprop is None:
            return self.INITIAL_CWND
        return max(
            self.bdp_packets(gain) + self.QUANTIZATION_BUDGET, self.MIN_PIPE_CWND
        )

    # ------------------------------------------------------------------
    # Main per-ACK update (draft BBRUpdateOnACK)
    # ------------------------------------------------------------------

    def on_ack(self, rs: RateSample, conn: "TcpSender") -> None:
        now = conn.sim.now
        self._update_round(rs, conn)
        self._update_btlbw(rs)
        self._check_cycle_phase(rs, now)
        self._check_full_pipe(rs)
        self._check_drain(conn, now)
        self._update_rtprop(rs, now)
        self._check_probe_rtt(rs, conn, now)
        self._update_cwnd(rs, conn)

    def _update_round(self, rs: RateSample, conn: "TcpSender") -> None:
        self.round_start = False
        if rs.delivered <= 0:
            return
        if rs.prior_delivered >= self.next_round_delivered:
            self.next_round_delivered = conn.rate_estimator.delivered
            self.round_count += 1
            self.round_start = True
            if self.packet_conservation:
                # One round of conservation after entering recovery.
                self.packet_conservation = False

    def _update_btlbw(self, rs: RateSample) -> None:
        rate = rs.delivery_rate
        if rate is None:
            return
        if not rs.is_app_limited or (self.btlbw is not None and rate >= self.btlbw):
            self.btlbw = self.btlbw_filter.update(rate, self.round_count)

    def _check_cycle_phase(self, rs: RateSample, now: float) -> None:
        if self.state != PROBE_BW:
            return
        if self._is_next_cycle_phase(rs, now):
            self.cycle_index = (self.cycle_index + 1) % len(self.GAIN_CYCLE)
            self.cycle_stamp = now
            self.pacing_gain = self.GAIN_CYCLE[self.cycle_index]

    def _is_next_cycle_phase(self, rs: RateSample, now: float) -> bool:
        rtprop = self.rtprop if self.rtprop is not None else 0.0
        is_full_length = (now - self.cycle_stamp) > rtprop
        if self.pacing_gain == 1.0:
            return is_full_length
        if self.pacing_gain > 1.0:
            return is_full_length and (
                rs.newly_lost > 0
                or rs.prior_in_flight >= self.inflight_target(self.pacing_gain)
            )
        return is_full_length or rs.prior_in_flight <= self.inflight_target(1.0)

    def _check_full_pipe(self, rs: RateSample) -> None:
        if self.filled_pipe or not self.round_start or rs.is_app_limited:
            return
        if self.btlbw is None:
            return
        if self.btlbw >= self.full_bw * 1.25:
            self.full_bw = self.btlbw
            self.full_bw_count = 0
            return
        self.full_bw_count += 1
        if self.full_bw_count >= 3:
            self.filled_pipe = True

    def _check_drain(self, conn: "TcpSender", now: float) -> None:
        if self.state == STARTUP and self.filled_pipe:
            self.state = DRAIN
            self.pacing_gain = 1.0 / self.HIGH_GAIN
            self.cwnd_gain = self.HIGH_GAIN
        if self.state == DRAIN and conn.in_flight <= self.inflight_target(1.0):
            self._enter_probe_bw(now)

    def _enter_probe_bw(self, now: float) -> None:
        self.state = PROBE_BW
        self.cwnd_gain = 2.0
        # Start anywhere in the cycle except the 1.25 probing phase
        # (draft: randomised to de-synchronise flows).
        self.cycle_index = self._rng.randrange(1, len(self.GAIN_CYCLE))
        self.pacing_gain = self.GAIN_CYCLE[self.cycle_index]
        self.cycle_stamp = now

    def _update_rtprop(self, rs: RateSample, now: float) -> None:
        self.rtprop_expired = now > self.rtprop_stamp + self.RTPROP_FILTER_LEN
        if rs.rtt is not None and rs.rtt > 0:
            if self.rtprop is None or rs.rtt <= self.rtprop or self.rtprop_expired:
                self.rtprop = rs.rtt
                self.rtprop_stamp = now

    def _check_probe_rtt(self, rs: RateSample, conn: "TcpSender", now: float) -> None:
        if self.state != PROBE_RTT and self.rtprop_expired and self.rtprop is not None:
            self._enter_probe_rtt()
        if self.state == PROBE_RTT:
            self._handle_probe_rtt(rs, conn, now)

    def _enter_probe_rtt(self) -> None:
        self.prior_cwnd = self._save_cwnd()
        self.state = PROBE_RTT
        self.pacing_gain = 1.0
        self.cwnd_gain = 1.0
        self.probe_rtt_done_stamp = None
        self.probe_rtt_round_done = False

    def _handle_probe_rtt(self, rs: RateSample, conn: "TcpSender", now: float) -> None:
        # Samples taken at the 4-packet ProbeRTT cwnd would drag the
        # bandwidth filter down; flag them app-limited (draft §4.3.5).
        conn.rate_estimator.mark_app_limited(conn.in_flight)
        if self.probe_rtt_done_stamp is None:
            if conn.in_flight <= self.MIN_PIPE_CWND:
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

    def _exit_probe_rtt(self, now: float) -> None:
        if self.filled_pipe:
            self._enter_probe_bw(now)
        else:
            self.state = STARTUP
            self.pacing_gain = self.HIGH_GAIN
            self.cwnd_gain = self.HIGH_GAIN

    # ------------------------------------------------------------------
    # cwnd control (draft BBRSetCwnd)
    # ------------------------------------------------------------------

    def _update_cwnd(self, rs: RateSample, conn: "TcpSender") -> None:
        acked = rs.newly_acked
        # Loss modulation (Linux bbr_set_cwnd_to_recover_or_restore):
        # subtract the newly marked losses from cwnd, and during the
        # first round of recovery never let cwnd fall below what is in
        # flight — a floor, not a ceiling.
        if rs.newly_lost > 0:
            self.cwnd = max(self.cwnd - rs.newly_lost, 1.0)
        if self.packet_conservation:
            self.cwnd = max(self.cwnd, conn.in_flight + acked)
        if acked <= 0 and rs.newly_lost <= 0 and self.state != PROBE_RTT:
            return
        target = self.inflight_target(self.cwnd_gain)
        if not self.packet_conservation and acked > 0:
            if self.filled_pipe:
                self.cwnd = min(self.cwnd + acked, target)
            elif self.cwnd < target or conn.rate_estimator.delivered < self.INITIAL_CWND:
                self.cwnd += acked
        self.cwnd = max(self.cwnd, self.MIN_PIPE_CWND)
        if self.state == PROBE_RTT:
            self.cwnd = min(self.cwnd, self._probe_rtt_cwnd())

    def _probe_rtt_cwnd(self) -> float:
        """cwnd held during ProbeRTT (v1: the 4-packet floor)."""
        return self.MIN_PIPE_CWND

    def _save_cwnd(self) -> float:
        if not self._in_recovery and self.state != PROBE_RTT:
            return self.cwnd
        return max(self.prior_cwnd, self.cwnd)

    def _restore_cwnd(self) -> None:
        self.cwnd = max(self.cwnd, self.prior_cwnd)

    # ------------------------------------------------------------------
    # Loss / recovery modulation
    # ------------------------------------------------------------------

    def on_loss_event(self, conn: "TcpSender") -> None:
        self.prior_cwnd = self._save_cwnd()
        self._in_recovery = True
        self.packet_conservation = True
        self.next_round_delivered = conn.rate_estimator.delivered
        # The per-ACK loss modulation in _update_cwnd handles the actual
        # cwnd adjustment (cwnd -= losses, floored at in-flight).

    def on_recovery_exit(self, conn: "TcpSender") -> None:
        self._in_recovery = False
        self.packet_conservation = False
        self._restore_cwnd()

    def on_rto(self, conn: "TcpSender") -> None:
        self.prior_cwnd = self._save_cwnd()
        self._in_recovery = True
        self.packet_conservation = False
        self.cwnd = 1.0
