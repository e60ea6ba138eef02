"""Experiment runner: the paper's measurement methodology, §3.2.

Given a :class:`~repro.core.scenarios.Scenario`, :func:`run_experiment`:

1. builds the dumbbell with one sender/receiver pair per flow;
2. staggers flow starts uniformly in ``[0, stagger_max]`` (the paper
   staggers over 0-2 minutes);
3. discards everything before ``warmup`` (the paper discards the first
   five minutes) — goodput, drops and cwnd events all start counting at
   the warm-up cut;
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

Deterministic fault injection (:mod:`repro.faults`) is driven either by
the scenario's own ``faults`` field or an explicit ``fault_schedule=``
override; the injector's RNG derives solely from the scenario seed, so
faulted runs are bit-reproducible and cacheable.
"""

from __future__ import annotations

import random
from typing import List, Optional

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
from ..tcp.cca import CCA_REGISTRY
from ..tcp.cca.base import CongestionControl
from ..tcp.cca.bbr import Bbr
from ..tcp.cca.bbr2 import Bbr2
from ..units import MSS
from .results import ExperimentResult, FlowResult, RunHealth
from .scenarios import Scenario

#: XORed into the scenario seed for the fault injector's RNG, so the
#: fault stream is independent of the flow-setup stream: adding faults
#: never perturbs the draws an unfaulted run would make.
_FAULT_SEED_SALT = 0xFA17


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


def _make_cca(name: str, rng: random.Random) -> CongestionControl:
    """Instantiate a CCA, giving stochastic CCAs a per-flow seeded RNG."""
    try:
        factory = CCA_REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(set(CCA_REGISTRY)))
        raise ValueError(f"unknown CCA {name!r}; known: {known}") from None
    if factory in (Bbr, Bbr2):
        return factory(rng=random.Random(rng.getrandbits(32)))
    return factory()


def _make_queue(scenario: Scenario, rng: random.Random) -> Queue:
    if scenario.use_red_queue:
        return REDQueue(scenario.buffer_bytes, rng=random.Random(rng.getrandbits(32)))
    return DropTailQueue(scenario.buffer_bytes)


def run_experiment(
    scenario: Scenario,
    record_drop_times: bool = True,
    convergence_check: bool = False,
    convergence_window_fraction: float = 0.25,
    convergence_tolerance: float = 0.01,
    fault_schedule: Optional[FaultSchedule] = None,
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
        ``convergence_tolerance`` over ``convergence_window_fraction``
        of the post-warm-up duration.
    fault_schedule:
        Fault timeline to inject; overrides ``scenario.faults``. Prefer
        putting faults on the scenario so they participate in run-store
        cache keys.
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
        can subscribe observers — trace recorders, cwnd probes — before
        the run. Results never come from the bus: halvings and RTOs are
        read from each sender's stats and drops/arrivals from the
        queue's own counters, all cut at ``scenario.warmup``. Without a
        bus nothing is bound and observation costs nothing.
    profiler:
        A :class:`~repro.obs.profiler.SimProfiler` to install on the
        simulator. Profiling is observation-only: the returned result
        is byte-identical with or without it.
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
                    cca=_make_cca(group.cca, rng),
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
        buffer_bytes=scenario.buffer_bytes,
        queue=queue,
        delayed_ack=scenario.delayed_ack,
    )

    # Results come from the components' own counters, which count only
    # events at or after the warm-up cut (an event due exactly at the
    # cut is measured, as tcpprobe and the switch drop log would).
    queue.count_from = scenario.warmup
    queue.record_drop_times = record_drop_times
    senders = [flow.sender for flow in dumbbell.flows]
    for sender in senders:
        sender.stats.count_from = scenario.warmup
    if bus is not None:
        for sender in senders:
            bus.bind_sender(sender)
        bus.bind_queue(queue)
    flow_mon = FlowMonitor(sim, senders)

    schedule = fault_schedule
    if schedule is None and scenario.faults:
        schedule = FaultSchedule(scenario.faults)
    injector: Optional[FaultInjector] = None
    if schedule is not None and schedule.events:
        injector = FaultInjector(
            sim,
            schedule,
            dumbbell,
            rng=random.Random(scenario.seed ^ _FAULT_SEED_SALT),
            bus=bus,
        )
        injector.arm()

    dog: Optional[SimWatchdog] = None
    if watchdog is not None:
        dog = SimWatchdog(
            sim, flow_mon, [spec.start_time for spec in specs], config=watchdog
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
    reason = ""
    sim.run(until=scenario.warmup, max_events=budget)
    if sim.now < scenario.warmup:
        reason = _interrupt_reason()

    if not reason:
        flow_mon.open_window()
        if convergence_check:
            measured_span = scenario.duration - scenario.warmup
            window = max(convergence_window_fraction * measured_span, 1e-9)
            tracker = ConvergenceTracker(window, convergence_tolerance)
            tick = max(measured_span / 60.0, 1e-3)
            stop_at = {"time": scenario.duration}

            history: List[tuple] = [(sim.now, sum(s.snd_una for s in senders))]

            def _sample() -> None:
                # Track throughput averaged over the trailing half-window so
                # the tolerance applies to a smoothed rate (the paper's
                # 20-minute metric is similarly smooth), not to per-tick
                # noise from individual loss events.
                delivered = sum(s.snd_una for s in senders)
                now = sim.now
                history.append((now, delivered))
                horizon = now - window / 2.0
                while len(history) > 2 and history[1][0] <= horizon:
                    history.pop(0)
                t0, d0 = history[0]
                rate = (delivered - d0) / (now - t0) if now > t0 else 0.0
                if tracker.observe(now, rate):
                    stop_at["time"] = min(stop_at["time"], now)
                    return
                if now + tick <= scenario.duration:
                    sim.schedule(tick, _sample)

            sim.schedule(tick, _sample)
            # Run in slices so an early convergence verdict ends the run.
            while sim.now < stop_at["time"]:
                sim.run(until=min(sim.now + tick, stop_at["time"]), max_events=budget)
                if sim.now < stop_at["time"]:
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

    # A truncated run may never have opened the measurement window (abort
    # during warm-up) or closed it at zero width; report zero goodput for
    # such windows rather than failing.
    window_open = (
        flow_mon.window_start is not None
        and flow_mon.window_end is not None
        and flow_mon.window_end > flow_mon.window_start
    )
    measured_duration = sim.now - scenario.warmup if window_open else 0.0

    flows: List[FlowResult] = []
    for flow, cca_name in zip(dumbbell.flows, cca_names):
        sender = flow.sender
        flows.append(
            FlowResult(
                flow_id=flow.flow_id,
                cca=cca_name,
                base_rtt=flow.spec.rtt,
                measured_rtt=sender.rtt.srtt,
                goodput_bps=flow_mon.goodput_bps(flow.flow_id) if window_open else 0.0,
                delivered_packets=(
                    flow_mon.delivered_packets(flow.flow_id) if window_open else 0
                ),
                packets_sent=sender.stats.packets_sent,
                retransmits=sender.stats.retransmits,
                halvings=sender.stats.halvings,
                rtos=sender.stats.rtos,
                queue_drops=queue.drops_by_flow.get(flow.flow_id, 0),
                queue_arrivals=queue.arrivals_by_flow.get(flow.flow_id, 0),
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
        queue_drops=sum(queue.drops_by_flow.values()),
        queue_arrivals=sum(queue.arrivals_by_flow.values()),
        drop_times=list(queue.drop_times),
        events_processed=sim.events_processed,
        health=health,
    )
