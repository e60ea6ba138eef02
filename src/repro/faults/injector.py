"""Applies a :class:`~repro.faults.schedule.FaultSchedule` to a dumbbell.

The injector is armed once after the topology is built: every fault
event becomes a simulator event at its onset time, and transient faults
schedule their own restoration at ``time + duration``. Baselines (link
rate, per-flow netem delay, buffer capacity) are captured at arm time,
so restoration is exact and nested schedules of the same kind compose
against the original configuration rather than drifting.

Everything the injector does is recorded in ``timeline`` as
``(sim_time, description)`` pairs — the fault audit trail carried into
``ExperimentResult.health``.

The bottleneck hands packets to their receivers ahead of the clock
(see :class:`~repro.sim.link.Link`), which is exact only while nothing
changes between a packet's admission and its departure. So the injector
keeps the link's horizon at the next fault time: a packet departing
then or later waits, and is delivered once the fault has been applied
and the horizon has moved on. The horizon the link had when the
injector armed (the run's end) caps it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..obs.bus import EventBus
from ..sim.engine import Simulator
from ..sim.netem import NetemDelay
from ..sim.topology import Dumbbell
from .gilbert import GilbertElliott
from .schedule import DEFAULT_GE_TRANSITIONS, FaultEvent, FaultSchedule

class FaultInjector:
    """Schedules a fault timeline against one built dumbbell.

    Parameters
    ----------
    rng:
        Seeded RNG for stochastic faults (burst loss). Derive it from
        the scenario seed — and from nothing else — so faulted runs are
        bit-reproducible and safely cacheable.
    """

    def __init__(
        self,
        sim: Simulator,
        schedule: FaultSchedule,
        dumbbell: Dumbbell,
        rng: random.Random,
        bus: Optional[EventBus] = None,
    ) -> None:
        """``bus`` mirrors every timeline entry onto the ``fault`` topic
        so live observers (trace recorders, dashboards) see faults as
        they are applied, not only in the post-run audit trail."""
        self.sim = sim
        self.schedule = schedule
        self.dumbbell = dumbbell
        self._rng = rng
        self._bus = bus
        self.timeline: List[Tuple[float, str]] = []
        self._armed = False
        # Times of the onsets and restorations still to apply, latest
        # first.
        self._pending: List[float] = []
        link = dumbbell.bottleneck
        self._base_rate = link.rate_bps
        self._base_capacity = link.queue.capacity_bytes
        self._base_delays: Dict[int, float] = {}
        self._reverse: Dict[int, NetemDelay] = {}
        for flow in dumbbell.flows:
            element = flow.receiver.reverse_path
            if isinstance(element, NetemDelay):
                self._reverse[flow.flow_id] = element
                self._base_delays[flow.flow_id] = element.delay

    def arm(self) -> None:
        """Schedule every fault event (call once, before the run starts)."""
        if self._armed:
            raise RuntimeError("fault schedule already armed")
        self._armed = True
        # The horizon the link had before arming (the run's end).
        self._cap = self.dumbbell.bottleneck.horizon
        for event in self.schedule.events:
            self.sim.schedule_at(event.time, self._apply, event)
            self._pending.append(event.time)
            if event.end_time is not None:
                self._pending.append(event.end_time)
        self._pending.sort(reverse=True)
        self._move_horizon()

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------

    def _move_horizon(self) -> None:
        """Set the bottleneck's horizon to the next change still to
        apply, which may be at the current time, or to the cap."""
        pending = self._pending
        horizon = pending[-1] if pending else self._cap
        self.dumbbell.bottleneck.set_horizon(min(horizon, self._cap))

    def _record(self, description: str) -> None:
        self.timeline.append((self.sim.now, description))
        if self._bus is not None:
            self._bus.publish("fault", self.sim.now, description)

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        handler(event)
        if event.end_time is not None:
            self.sim.schedule_at(event.end_time, self._restore, event)
        self._pending.pop()
        self._move_horizon()

    def _restore(self, event: FaultEvent) -> None:
        restorer = getattr(self, f"_restore_{event.kind}")
        restorer(event)
        self._pending.pop()
        self._move_horizon()

    # -- blackout ------------------------------------------------------

    def _apply_link_down(self, event: FaultEvent) -> None:
        self.dumbbell.bottleneck.set_down()
        self._record("link down")

    def _restore_link_down(self, event: FaultEvent) -> None:
        self.dumbbell.bottleneck.set_up()
        self._record("link up")

    # -- bandwidth -----------------------------------------------------

    def _apply_bandwidth(self, event: FaultEvent) -> None:
        rate = self._base_rate * event.value
        self.dumbbell.bottleneck.set_rate(rate)
        self._record(f"bandwidth x{event.value:g} ({rate / 1e6:.1f} Mbps)")

    def _restore_bandwidth(self, event: FaultEvent) -> None:
        self.dumbbell.bottleneck.set_rate(self._base_rate)
        self._record("bandwidth restored")

    # -- RTT step / spike ---------------------------------------------

    def _target_flows(self, event: FaultEvent) -> List[int]:
        if event.flows is None:
            return sorted(self._reverse)
        return [fid for fid in event.flows if fid in self._reverse]

    def _apply_rtt(self, event: FaultEvent) -> None:
        # The reverse netem element carries the flow's whole base RTT,
        # so ``rtt@t=4`` means exactly four times the base RTT.
        flows = self._target_flows(event)
        for fid in flows:
            self._reverse[fid].set_delay(self._base_delays[fid] * event.value)
        self._record(f"rtt x{event.value:g} on {len(flows)} flow(s)")

    def _restore_rtt(self, event: FaultEvent) -> None:
        flows = self._target_flows(event)
        for fid in flows:
            self._reverse[fid].set_delay(self._base_delays[fid])
        self._record("rtt restored")

    # -- Gilbert–Elliott burst loss -----------------------------------

    def _apply_burst_loss(self, event: FaultEvent) -> None:
        p_enter, p_exit = event.params or DEFAULT_GE_TRANSITIONS
        model = GilbertElliott(
            p_enter=p_enter,
            p_exit=p_exit,
            loss_bad=event.value,
            rng=random.Random(self._rng.getrandbits(32)),
        )
        self.dumbbell.bottleneck.loss_model = model
        self._record(
            f"burst loss on (p_bad={event.value:g}, "
            f"avg loss {model.stationary_loss_rate:.2%})"
        )

    def _restore_burst_loss(self, event: FaultEvent) -> None:
        model = self.dumbbell.bottleneck.loss_model
        self.dumbbell.bottleneck.loss_model = None
        dropped = model.drops if isinstance(model, GilbertElliott) else 0
        self._record(f"burst loss off ({dropped} packet(s) dropped)")

    # -- buffer resize -------------------------------------------------

    def _apply_buffer(self, event: FaultEvent) -> None:
        capacity = max(1, int(self._base_capacity * event.value))
        self.dumbbell.bottleneck.set_capacity(capacity)
        self._record(f"buffer x{event.value:g} ({capacity} B)")

    def _restore_buffer(self, event: FaultEvent) -> None:
        self.dumbbell.bottleneck.set_capacity(self._base_capacity)
        self._record("buffer restored")
