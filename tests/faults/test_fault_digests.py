"""One pinned result digest per fault kind.

The bottleneck hands packets to their receivers ahead of the clock, up
to the fault injector's horizon, and a fault re-times the packets
waiting in the queue. Each fault below lands at t=1.2 s in a four-flow
NewReno run whose 3 MB queue is nearly full then, so packets are parked
at the horizon when it does. The digests were recorded with a link that
spent one heap event per transmission, so they pin that the horizon
keeps every fault's physics exact. No golden run exercises the
``bandwidth`` or ``buffer`` kinds.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.experiment import run_experiment
from repro.core.goldens import result_digest
from repro.core.scenarios import edge_scale
from repro.faults import FaultSchedule
from repro.faults.injector import FaultInjector

_BASE = edge_scale(flows=4, cca="newreno", duration=2.5, warmup=0.5, seed=5)

#: Fault kind -> (spec, result digest).
PINNED = {
    "link_down": (
        "down@1.2+0.2",
        "64b2da14c60c63f22311d5871642ad6d2632b99b30988065f8d95eb27e4e2146",
    ),
    "bandwidth": (
        "bw@1.2+0.3=0.5",
        "581790c0310543776bfe9e757a7c714f8c963cb60da4b09b72bc3672083bafc5",
    ),
    "rtt": (
        "rtt@1.2+0.3=4",
        "4050e4fb2d870be288404c54d7723312d783780ab56111d5f78ee0e465cab6d3",
    ),
    "burst_loss": (
        "gilbert@1.2+0.3=0.3",
        "93c6f1e7a3b51a6cbb317adb2b7c7d97a6bf7be854c465dd1a8f4d64ef93517a",
    ),
    "buffer": (
        "buffer@1.2+0.3=0.25",
        "f57b79250116b555fab6b3cbdfbe51edf29c7682cbdb13ed917a8bf952ba1211",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_fault_kind_digest(kind):
    spec, digest = PINNED[kind]
    scenario = _BASE.with_overrides(
        name=f"fault-{kind}",
        faults=FaultSchedule.from_spec(spec, _BASE.duration).events,
    )
    parked_at_onset = []
    apply = FaultInjector._apply

    def recording(injector, event):
        parked_at_onset.append(len(injector.dumbbell.bottleneck._parked))
        apply(injector, event)

    with mock.patch.object(FaultInjector, "_apply", recording):
        result = run_experiment(scenario)
    assert result.health is not None and result.health.ok
    assert [event.kind for event in scenario.faults] == [kind]
    # Packets wait at the horizon when the fault lands.
    assert parked_at_onset[0] > 100
    assert result_digest(result) == digest
