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

_INF = float("inf")


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
        self.btlbw_filter = WindowedFilter(self.BTLBW_FILTER_LEN)
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
        # Upper bound on inflight learned from loss. BBRv1 never learns
        # one; Bbr2 lowers it on each loss event, and the cwnd update
        # caps cwnd at it.
        self.inflight_hi = _INF

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
        btlbw = self.btlbw
        rtprop = self.rtprop
        if btlbw is None or rtprop is None:
            return self.INITIAL_CWND
        # max(bdp_packets(gain) + budget, MIN_PIPE_CWND) as a comparison.
        target = gain * btlbw * rtprop + self.QUANTIZATION_BUDGET
        return self.MIN_PIPE_CWND if self.MIN_PIPE_CWND > target else target

    # ------------------------------------------------------------------
    # Main per-ACK update (draft BBRUpdateOnACK)
    # ------------------------------------------------------------------

    def on_ack(self, rs: RateSample, conn: "TcpSender") -> None:
        """The draft's per-ACK model and control update, in one frame.

        In order: round counting, the BtlBw filter, the ProbeBW gain
        cycle, full-pipe detection, drain, the RTprop filter, ProbeRTT
        and the cwnd update. The steady-state steps run inline, with
        ``min``/``max`` spelled as comparisons that pick the same
        operand. The rare transitions stay methods (full-pipe
        detection, drain, ProbeRTT entry and handling), called only on
        the ACKs where they can act, and so do the hooks a subclass
        overrides: :meth:`_check_cycle_phase` runs outside v1's
        PROBE_BW state, :meth:`_check_probe_rtt` once RTprop expires or
        in PROBE_RTT, and the cwnd cap at ``inflight_hi`` applies only
        once one has been learned.
        """
        now = conn.sim.now

        # --- round counting -------------------------------------------
        self.round_start = False
        if rs.delivered > 0 and rs.prior_delivered >= self.next_round_delivered:
            self.next_round_delivered = conn.rate_estimator.delivered
            self.round_count += 1
            self.round_start = True
            if self.packet_conservation:
                # One round of conservation after entering recovery.
                self.packet_conservation = False

        # --- BtlBw max filter -----------------------------------------
        rate = rs.delivery_rate
        if rate is not None and (
            not rs.is_app_limited or (self.btlbw is not None and rate >= self.btlbw)
        ):
            self.btlbw = self.btlbw_filter.update(rate, self.round_count)

        # --- ProbeBW gain cycle (draft BBRCheckCyclePhase) -------------
        if self.state == PROBE_BW:
            rtprop = self.rtprop
            is_full_length = (now - self.cycle_stamp) > (
                rtprop if rtprop is not None else 0.0
            )
            gain = self.pacing_gain
            if gain == 1.0:
                advance = is_full_length
            elif gain > 1.0:
                advance = is_full_length and (
                    rs.newly_lost > 0
                    or rs.prior_in_flight >= self.inflight_target(gain)
                )
            else:
                advance = is_full_length or (
                    rs.prior_in_flight <= self.inflight_target(1.0)
                )
            if advance:
                self.cycle_index = (self.cycle_index + 1) % len(self.GAIN_CYCLE)
                self.cycle_stamp = now
                self.pacing_gain = self.GAIN_CYCLE[self.cycle_index]
        else:
            self._check_cycle_phase(rs, now)

        # --- STARTUP exit ---------------------------------------------
        if not self.filled_pipe and self.round_start and not rs.is_app_limited:
            self._check_full_pipe(rs)
        if self.filled_pipe and (self.state == STARTUP or self.state == DRAIN):
            self._check_drain(conn, now)

        # --- RTprop min filter ----------------------------------------
        expired = self.rtprop_expired = now > self.rtprop_stamp + self.RTPROP_FILTER_LEN
        rtt = rs.rtt
        if rtt is not None and rtt > 0:
            rtprop = self.rtprop
            if rtprop is None or rtt <= rtprop or expired:
                self.rtprop = rtt
                self.rtprop_stamp = now
        if expired or self.state == PROBE_RTT:
            self._check_probe_rtt(rs, conn, now)

        # --- cwnd (draft BBRSetCwnd) ----------------------------------
        cwnd = self.cwnd
        acked = rs.newly_acked
        lost = rs.newly_lost
        state = self.state
        # Loss modulation (Linux bbr_set_cwnd_to_recover_or_restore):
        # subtract the newly marked losses from cwnd, and during the
        # first round of recovery never let cwnd fall below what is in
        # flight — a floor, not a ceiling.
        if lost > 0:
            cwnd = cwnd - lost
            if 1.0 > cwnd:
                cwnd = 1.0
        if self.packet_conservation:
            floor = conn.in_flight + acked
            if floor > cwnd:
                cwnd = floor
        if acked > 0 or lost > 0 or state == PROBE_RTT:
            if not self.packet_conservation and acked > 0:
                target = self.inflight_target(self.cwnd_gain)
                if self.filled_pipe:
                    cwnd = cwnd + acked
                    if target < cwnd:
                        cwnd = target
                elif cwnd < target or conn.rate_estimator.delivered < self.INITIAL_CWND:
                    cwnd += acked
            if self.MIN_PIPE_CWND > cwnd:
                cwnd = self.MIN_PIPE_CWND
            if state == PROBE_RTT:
                probe_rtt_cwnd = self._probe_rtt_cwnd()
                if probe_rtt_cwnd < cwnd:
                    cwnd = probe_rtt_cwnd
        inflight_hi = self.inflight_hi
        if inflight_hi < _INF and state != PROBE_RTT:
            cap = self.MIN_PIPE_CWND if self.MIN_PIPE_CWND > inflight_hi else inflight_hi
            if cap < cwnd:
                cwnd = cap
        self.cwnd = cwnd

    def _check_cycle_phase(self, rs: RateSample, now: float) -> None:
        """Per-ACK hook for a ProbeBW cycle other than v1's, which runs
        inline in :meth:`on_ack`; called in every state but PROBE_BW.
        BBRv1 has nothing to do there."""

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
    # cwnd control (the per-ACK update is inline in on_ack)
    # ------------------------------------------------------------------

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
        # The per-ACK loss modulation in on_ack handles the actual cwnd
        # adjustment (cwnd -= losses, floored at in-flight).

    def on_recovery_exit(self, conn: "TcpSender") -> None:
        self._in_recovery = False
        self.packet_conservation = False
        self._restore_cwnd()

    def on_rto(self, conn: "TcpSender") -> None:
        self.prior_cwnd = self._save_cwnd()
        self._in_recovery = True
        self.packet_conservation = False
        self.cwnd = 1.0
