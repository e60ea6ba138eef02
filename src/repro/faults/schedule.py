"""Deterministic fault schedules.

A :class:`FaultSchedule` is an ordered list of timed :class:`FaultEvent`
records describing *when* the network misbehaves and *how*: link
blackouts, bottleneck bandwidth reduction, RTT steps/spikes on the netem
path, Gilbert–Elliott burst loss, and buffer resizing. Schedules are
declarative and picklable; :class:`~repro.faults.injector.FaultInjector`
turns them into simulator events against a built dumbbell.

Fault events live on the :class:`~repro.core.scenarios.Scenario`
(``faults=`` field), so they participate in the run-store cache key: a
faulted run is exactly as reproducible and cacheable as a steady one.
All stochastic elements (burst loss) draw from RNGs derived from the
scenario seed.

The module also defines the named **presets** behind ``repro run
--faults <name>`` and ``repro faults ls`` — blackout, flap, rtt-spike,
burst-loss — each scaled to the scenario duration at build time, plus a
tiny spec grammar for ad-hoc schedules::

    down@8+2                link down at t=8 s, restored at t=10 s
    down@8                  link down at t=8 s, never restored
    bw@10+5=0.25            bottleneck at 25% rate for 5 s
    rtt@12+1=4              base RTT x4 for 1 s
    gilbert@5+10=0.3        burst loss (bad-state drop prob 0.3) for 10 s
    buffer@6+3=0.1          bottleneck buffer shrunk to 10% for 3 s

Tokens are comma-separated and may mix presets with raw events:
``--faults "blackout,rtt@20+1=4"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

#: Recognised fault kinds (the ``kind`` field of :class:`FaultEvent`).
FAULT_KINDS = ("link_down", "bandwidth", "rtt", "burst_loss", "buffer")

#: Kinds whose ``value`` is a required positive multiplier/probability.
_VALUED_KINDS = ("bandwidth", "rtt", "burst_loss", "buffer")

#: Spec-token aliases for the kinds.
_KIND_ALIASES = {
    "down": "link_down",
    "link_down": "link_down",
    "bw": "bandwidth",
    "bandwidth": "bandwidth",
    "rtt": "rtt",
    "gilbert": "burst_loss",
    "burst_loss": "burst_loss",
    "buffer": "buffer",
}

#: Default Gilbert–Elliott transition probabilities per packet:
#: (P[good->bad], P[bad->good]). With these, bad bursts last ~5 packets
#: and strike ~9% of the time — squarely in the correlated-loss regime
#: the Gilbert channel literature uses to stress loss-rate models.
DEFAULT_GE_TRANSITIONS = (0.02, 0.2)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    time:
        Absolute simulated onset time in seconds.
    duration:
        How long the fault lasts before the injector restores the
        baseline; ``None`` means it is never restored (e.g. a permanent
        blackout).
    value:
        Kind-specific magnitude: rate multiplier (``bandwidth``), base-RTT
        multiplier (``rtt``), bad-state drop probability
        (``burst_loss``), capacity multiplier (``buffer``). Unused for
        ``link_down``.
    params:
        Extra kind-specific numbers. For ``burst_loss``: the
        ``(P[good->bad], P[bad->good])`` per-packet transition
        probabilities (default :data:`DEFAULT_GE_TRANSITIONS`).
    flows:
        For ``rtt`` faults: the flow ids to impair (``None`` = every
        flow). Other kinds act on the shared bottleneck and ignore it.
    """

    kind: str
    time: float
    duration: Optional[float] = None
    value: float = 0.0
    params: Tuple[float, ...] = ()
    flows: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"fault duration must be positive, got {self.duration}")
        if self.kind in _VALUED_KINDS and self.value <= 0:
            raise ValueError(f"{self.kind} fault needs a positive value")
        if self.kind == "burst_loss":
            if not self.value < 1.0:
                raise ValueError("burst_loss drop probability must be < 1")
            transitions = self.params or DEFAULT_GE_TRANSITIONS
            if len(transitions) != 2 or not all(0.0 < p <= 1.0 for p in transitions):
                raise ValueError(
                    "burst_loss params must be two transition probabilities in (0, 1]"
                )

    @property
    def end_time(self) -> Optional[float]:
        """When the injector restores the baseline (``None`` = never)."""
        if self.duration is None:
            return None
        return self.time + self.duration

    def describe(self) -> str:
        """Compact human-readable form (used in timelines and ``faults ls``)."""
        span = f"@{self.time:g}" + (f"+{self.duration:g}" if self.duration else "")
        if self.kind == "link_down":
            return f"link_down{span}"
        detail = f"={self.value:g}"
        if self.kind == "burst_loss" and self.params:
            detail += "(" + ",".join(f"{p:g}" for p in self.params) + ")"
        return f"{self.kind}{span}{detail}"


class FaultSchedule:
    """An immutable, time-sorted collection of fault events."""

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.kind))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def describe(self) -> str:
        return ", ".join(e.describe() for e in self.events) or "(empty)"

    @classmethod
    def from_spec(cls, spec: str, duration: float) -> "FaultSchedule":
        """Parse the ``--faults`` grammar (see module docstring).

        ``duration`` is the scenario duration; presets scale to it.
        """
        events = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if token in PRESETS:
                events.extend(PRESETS[token].build(duration))
                continue
            events.append(_parse_token(token))
        if not events:
            raise ValueError(f"fault spec {spec!r} contains no events")
        return cls(events)


def _parse_token(token: str) -> FaultEvent:
    """One raw spec token: ``kind@time[+duration][=value]``."""
    head, sep, tail = token.partition("@")
    kind = _KIND_ALIASES.get(head.strip())
    if kind is None or not sep:
        known = ", ".join(sorted(set(_KIND_ALIASES)))
        presets = ", ".join(sorted(PRESETS))
        raise ValueError(
            f"bad fault token {token!r}: expected a preset ({presets}) or "
            f"kind@time[+duration][=value] with kind in {{{known}}}"
        )
    timing, _, value_text = tail.partition("=")
    start_text, _, duration_text = timing.partition("+")
    try:
        time = float(start_text)
        duration = float(duration_text) if duration_text else None
        value = float(value_text) if value_text else 0.0
    except ValueError:
        raise ValueError(f"bad fault token {token!r}: non-numeric field") from None
    if kind in _VALUED_KINDS and not value_text:
        raise ValueError(f"bad fault token {token!r}: {kind} needs =value")
    return FaultEvent(kind=kind, time=time, duration=duration, value=value)


# ----------------------------------------------------------------------
# Named presets (repro run --faults <name>; repro faults ls)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPreset:
    """A named, duration-scaled schedule template."""

    name: str
    summary: str
    build: Callable[[float], Tuple[FaultEvent, ...]]

    def describe(self, duration: float = 30.0) -> str:
        return FaultSchedule(self.build(duration)).describe()


def _blackout(duration: float) -> Tuple[FaultEvent, ...]:
    return (
        FaultEvent("link_down", time=0.4 * duration, duration=0.1 * duration),
    )


def _flap(duration: float) -> Tuple[FaultEvent, ...]:
    dip = max(0.02 * duration, 1e-3)
    return tuple(
        FaultEvent("link_down", time=frac * duration, duration=dip)
        for frac in (0.3, 0.5, 0.7)
    )


def _rtt_spike(duration: float) -> Tuple[FaultEvent, ...]:
    return (
        FaultEvent("rtt", time=0.5 * duration, duration=0.1 * duration, value=4.0),
    )


def _burst_loss(duration: float) -> Tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            "burst_loss",
            time=0.3 * duration,
            duration=0.5 * duration,
            value=0.3,
            params=DEFAULT_GE_TRANSITIONS,
        ),
    )


PRESETS: Dict[str, FaultPreset] = {
    preset.name: preset
    for preset in (
        FaultPreset(
            "blackout",
            "one mid-run link outage (10% of the duration, starting at 40%)",
            _blackout,
        ),
        FaultPreset(
            "flap",
            "three short link flaps (2% of the duration each) at 30/50/70%",
            _flap,
        ),
        FaultPreset(
            "rtt-spike",
            "base RTT x4 for 10% of the duration, starting at 50%",
            _rtt_spike,
        ),
        FaultPreset(
            "burst-loss",
            "Gilbert-Elliott burst loss (p_bad=0.3) over the middle half",
            _burst_loss,
        ),
    )
}
