"""Experiment runner: the paper's measurement methodology, §3.2.

Given a :class:`~repro.core.scenarios.Scenario`, :func:`run_experiment`:

1. builds the dumbbell with one sender/receiver pair per flow;
2. staggers flow starts uniformly in ``[0, stagger_max]`` (the paper
   staggers over 0-2 minutes);
3. discards everything before ``warmup`` (the paper discards the first
   five minutes): the warm-up runs every event before the cut and none
   at it, and a :class:`~repro.instrumentation.flowmon.FlowMonitor`
   window opened there differences the senders' and the queue's
   lifetime counters, so an event due exactly at the cut is measured;
4. optionally stops early once aggregate goodput is stable (the paper's
   "<1% change over 20 minutes" rule, applied over a proportional
   window);
5. returns an :class:`~repro.core.results.ExperimentResult` with
   per-flow goodput, loss, halving counts and queue-level drop records.

Robustness
----------
Every run is guarded by an event budget (``max_events``, defaulting to
:func:`default_event_budget`) that catches zero-sim-time livelock, and
may additionally arm a :class:`~repro.faults.watchdog.SimWatchdog`
(``watchdog=``) that catches per-flow delivery stalls. When the
watchdog aborts — or the budget trips with a watchdog armed — the run
returns a *partial* result whose ``health`` record carries the stalled
flows, the fault timeline and the truncation time. Budget exhaustion
without a watchdog raises :class:`~repro.sim.engine.SimulationError`.

Deterministic fault injection (:mod:`repro.faults`) is driven by the
scenario's own ``faults`` field, which is part of the run-store cache
key; the injector's RNG derives solely from the scenario seed, so
faulted runs are bit-reproducible and cacheable.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from ..analysis.convergence import ConvergenceTracker
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..faults.watchdog import SimWatchdog, WatchdogConfig
from ..instrumentation.flowmon import FlowMonitor
from ..obs.bus import EventBus
from ..obs.profiler import SimProfiler
from ..sim.engine import SimulationError, Simulator
from ..sim.queue import DropTailQueue, Queue, REDQueue
from ..sim.topology import FlowSpec, build_dumbbell
from ..tcp.cca import make_cca
from ..tcp.connection import TcpSender
from ..units import MSS
from .results import ExperimentResult, FlowResult, RunHealth
from .scenarios import Scenario

#: XORed into the scenario seed for the fault injector's RNG, so the
#: fault stream is independent of the flow-setup stream: adding faults
#: never perturbs the draws an unfaulted run would make.
_FAULT_SEED_SALT = 0xFA17

#: The convergence check's window, as a fraction of the post-warm-up
#: duration.
CONVERGENCE_WINDOW_FRACTION = 0.25


def default_event_budget(scenario: Scenario) -> int:
    """Default ``max_events`` safety valve for one scenario run.

    Sized from first principles with a wide margin: a saturated
    bottleneck forwards ``bw / (8 * MSS)`` packets per second and each
    packet costs a handful of events (enqueue, dequeue, link finish,
    delivery, ACK path, timers), so 200 events per packet-second plus a
    generous per-flow and fixed allowance is orders of magnitude above
    any legitimate run while still finite — a livelocked event loop
    spinning at a frozen clock hits it quickly.
    """
    packets_per_second = scenario.bottleneck_bw_bps / (8.0 * MSS)
    return int(
        200.0 * scenario.duration * packets_per_second
        + 50_000 * scenario.total_flows
        + 1_000_000
    )


def _make_queue(scenario: Scenario, rng: random.Random) -> Queue:
    if scenario.use_red_queue:
        return REDQueue(scenario.buffer_bytes, rng=random.Random(rng.getrandbits(32)))
    return DropTailQueue(scenario.buffer_bytes)


class _ConvergenceSampler:
    """The convergence check's periodic throughput sample.

    :meth:`sample` is an event handler that reschedules itself until
    the tracker's verdict (which sets :attr:`stop_at`) or the end of the
    run. It is a method rather than a closure because a closure that
    schedules itself refers to itself through its own cell, a reference
    cycle; the sampler is referred to only by its pending event and by
    the run that reads :attr:`stop_at`.
    """

    __slots__ = ("sim", "senders", "tracker", "tick", "duration", "history", "stop_at")

    def __init__(
        self,
        sim: Simulator,
        senders: List[TcpSender],
        tracker: ConvergenceTracker,
        tick: float,
        duration: float,
    ) -> None:
        self.sim = sim
        self.senders = senders
        self.tracker = tracker
        self.tick = tick
        self.duration = duration
        self.history: List[Tuple[float, int]] = [
            (sim.now, sum(s.snd_una for s in senders))
        ]
        #: When the run should end: the scenario's duration until the
        #: tracker reports convergence.
        self.stop_at = duration

    def sample(self) -> None:
        # Track throughput averaged over the trailing half-window so
        # the tolerance applies to a smoothed rate (the paper's
        # 20-minute metric is similarly smooth), not to per-tick
        # noise from individual loss events.
        sim = self.sim
        history = self.history
        delivered = sum(s.snd_una for s in self.senders)
        now = sim.now
        history.append((now, delivered))
        horizon = now - self.tracker.window / 2.0
        while len(history) > 2 and history[1][0] <= horizon:
            history.pop(0)
        t0, d0 = history[0]
        rate = (delivered - d0) / (now - t0) if now > t0 else 0.0
        if self.tracker.observe(now, rate):
            self.stop_at = min(self.stop_at, now)
            return
        if now + self.tick <= self.duration:
            sim.schedule(self.tick, self.sample)


def run_experiment(
    scenario: Scenario,
    record_drop_times: bool = True,
    convergence_check: bool = False,
    convergence_tolerance: float = 0.01,
    watchdog: Optional[WatchdogConfig] = None,
    max_events: Optional[int] = None,
    bus: Optional[EventBus] = None,
    profiler: Optional[SimProfiler] = None,
) -> ExperimentResult:
    """Run one scenario to completion and collect all measurements.

    Parameters
    ----------
    record_drop_times:
        Keep the per-drop timestamp list (needed for burstiness
        analysis; costs memory on very lossy runs).
    convergence_check:
        Enable the paper's early-stop rule: once past warm-up, stop when
        aggregate delivered throughput changes by less than
        ``convergence_tolerance`` over :data:`CONVERGENCE_WINDOW_FRACTION`
        of the post-warm-up duration.
    watchdog:
        Arm a :class:`~repro.faults.watchdog.SimWatchdog` with this
        config: flows with no delivery progress for a stall budget are
        recorded in ``result.health``, and once every runnable flow is
        stalled the run aborts into a partial result instead of
        spinning until the event budget.
    max_events:
        Override the :func:`default_event_budget` safety valve.
    bus:
        An :class:`~repro.obs.bus.EventBus` to bind every sender and the
        bottleneck queue to (and to publish fault events on), so callers
        can subscribe observers — trace recorders, ad-hoc samplers — before
        the run. Results never come from the bus: they are the senders'
        and the queue's own counters, differenced across the measurement
        window. Without a bus nothing is bound and observation costs
        nothing.
    profiler:
        A :class:`~repro.obs.profiler.SimProfiler` to install on the
        simulator. Profiling is observation-only: the returned result
        is byte-identical with or without it.

    The simulated world (senders, receivers, link, queue, packets) is
    released on return, whether the run completes or raises: every
    pending event is dropped and the bottleneck's routes are cleared,
    which leaves no reference cycle through the world, so reference
    counting frees it as soon as the caller drops the result (and any
    ``bus`` or ``profiler`` it passed in), with no collector pass.
    """
    rng = random.Random(scenario.seed)
    sim = Simulator()
    if profiler is not None:
        profiler.install(sim)

    specs: List[FlowSpec] = []
    cca_names: List[str] = []
    for group in scenario.groups:
        for _ in range(group.count):
            start = rng.uniform(0.0, scenario.stagger_max) if scenario.stagger_max else 0.0
            specs.append(
                FlowSpec(
                    cca=make_cca(group.cca, rng),
                    rtt=group.rtt,
                    start_time=start,
                    jitter=scenario.ack_jitter_fraction * group.rtt,
                    jitter_seed=rng.getrandbits(32),
                )
            )
            cca_names.append(group.cca)

    queue = _make_queue(scenario, rng)
    dumbbell = build_dumbbell(
        sim,
        specs,
        bottleneck_bw_bps=scenario.bottleneck_bw_bps,
        queue=queue,
        delayed_ack=scenario.delayed_ack,
    )

    try:
        queue.record_drop_times = False  # until the cut
        senders = [flow.sender for flow in dumbbell.flows]
        if bus is not None:
            for sender in senders:
                bus.bind_sender(sender)
            bus.bind_queue(queue)
        flow_mon = FlowMonitor(sim, senders, queue)

        injector: Optional[FaultInjector] = None
        if scenario.faults:
            injector = FaultInjector(
                sim,
                FaultSchedule(scenario.faults),
                dumbbell,
                rng=random.Random(scenario.seed ^ _FAULT_SEED_SALT),
                bus=bus,
            )
            injector.arm()

        dog: Optional[SimWatchdog] = None
        if watchdog is not None:
            dog = SimWatchdog(
                sim, senders, [spec.start_time for spec in specs], config=watchdog
            )
            dog.arm()

        budget = max_events if max_events is not None else default_event_budget(scenario)
        if budget <= 0:
            raise ValueError("max_events must be positive")

        def _interrupt_reason() -> str:
            """Why the last ``sim.run`` stopped short of its target."""
            if dog is not None and dog.aborted:
                return dog.abort_reason or "stall"
            if sim.events_processed >= budget:
                return "event_budget"
            return ""

        dumbbell.start_all()
        # Warm-up runs every event before the cut and none at it, so the
        # window opens exactly at the cut without an event of its own
        # (the golden corpus pins ``events_processed``). A run truncated
        # during warm-up still opens and closes it, with nothing inside.
        before_cut = math.nextafter(scenario.warmup, -math.inf)
        sim.run(until=before_cut, max_events=budget)
        reason = _interrupt_reason() if sim.now < before_cut else ""
        flow_mon.open_window(scenario.warmup)
        queue.record_drop_times = record_drop_times
        if not reason:
            sim.run(until=scenario.warmup, max_events=budget)
            if sim.now < scenario.warmup:
                reason = _interrupt_reason()

        if not reason:
            if convergence_check:
                measured_span = scenario.duration - scenario.warmup
                window = max(CONVERGENCE_WINDOW_FRACTION * measured_span, 1e-9)
                tracker = ConvergenceTracker(window, convergence_tolerance)
                tick = max(measured_span / 60.0, 1e-3)
                sampler = _ConvergenceSampler(sim, senders, tracker, tick, scenario.duration)
                sim.schedule(tick, sampler.sample)
                # Run in slices so an early convergence verdict ends the run.
                while sim.now < sampler.stop_at:
                    sim.run(until=min(sim.now + tick, sampler.stop_at), max_events=budget)
                    if sim.now < sampler.stop_at:
                        reason = _interrupt_reason()
                        if reason:
                            break
            else:
                sim.run(until=scenario.duration, max_events=budget)
                if sim.now < scenario.duration:
                    reason = _interrupt_reason()

        flow_mon.close_window()

        if reason == "event_budget" and dog is None:
            raise SimulationError(
                f"event budget exhausted at t={sim.now:.3f}s "
                f"({sim.events_processed} events >= {budget}): the run may be "
                "livelocked. Raise the budget with max_events=, or arm a "
                "watchdog (watchdog=WatchdogConfig(...)) to degrade into a "
                "partial result instead of failing."
            )

        # A run truncated during warm-up closed its window before it
        # started: zero duration and zero goodput, not a failure.
        measured_duration = flow_mon.duration
        flows: List[FlowResult] = []
        for flow, cca_name in zip(dumbbell.flows, cca_names):
            sender = flow.sender
            counts = flow_mon.counts(flow.flow_id)
            flows.append(
                FlowResult(
                    flow_id=flow.flow_id,
                    cca=cca_name,
                    base_rtt=flow.spec.rtt,
                    measured_rtt=sender.rtt.srtt,
                    goodput_bps=(
                        counts["delivered_packets"] * MSS * 8.0 / measured_duration
                        if measured_duration
                        else 0.0
                    ),
                    packets_sent=sender.stats.packets_sent,
                    retransmits=sender.stats.retransmits,
                    **counts,
                )
            )

        health: Optional[RunHealth] = None
        if injector is not None or dog is not None:
            health = RunHealth(
                ok=not reason,
                reason=reason,
                truncated_at=sim.now if reason else None,
                stalled_flows=sorted(dog.stalled_flows) if dog is not None else [],
                fault_timeline=list(injector.timeline) if injector is not None else [],
            )

        return ExperimentResult(
            scenario=scenario,
            flows=flows,
            measured_duration=measured_duration,
            queue_drops=sum(f.queue_drops for f in flows),
            queue_arrivals=sum(f.queue_arrivals for f in flows),
            drop_times=list(queue.drop_times),
            events_processed=sim.events_processed,
            health=health,
        )
    finally:
        # The world's reference cycles all run through a pending event
        # or the bottleneck's routes (receiver -> reverse netem ->
        # sender -> bottleneck); cutting both leaves a tree that
        # reference counting frees as soon as the caller lets go.
        sim.release()
        dumbbell.bottleneck.routes.clear()
