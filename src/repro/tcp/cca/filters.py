"""Windowed max/min filters used by BBR.

BBR tracks the bottleneck bandwidth as a windowed maximum of delivery
rate samples over ~10 round trips, and the round-trip propagation delay
as a windowed minimum over 10 seconds. Both are implemented here as a
generic monotonic-deque filter keyed by an arbitrary "time" axis (round
count for the bandwidth filter, seconds for the RTT filter).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class WindowedFilter:
    """Tracks the extremum of a stream of samples over a sliding window.

    Parameters
    ----------
    window:
        Width of the window on whatever axis ``update`` receives.
    mode:
        ``"max"`` or ``"min"``.
    """

    def __init__(self, window: float, mode: str = "max") -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        self.window = window
        self._is_max = mode == "max"
        self._samples: Deque[Tuple[float, float]] = deque()  # (time, value)

    def update(self, value: float, time: float) -> float:
        """Insert a sample observed at ``time``; returns the new extremum."""
        samples = self._samples
        # Evict samples dominated by the new one.
        if self._is_max:
            while samples and value >= samples[-1][1]:
                samples.pop()
        else:
            while samples and value <= samples[-1][1]:
                samples.pop()
        samples.append((time, value))
        # Evict samples that have aged out of the window.
        horizon = time - self.window
        while samples and samples[0][0] < horizon:
            samples.popleft()
        return samples[0][1]

    def get(self) -> Optional[float]:
        """Current extremum, or ``None`` if no samples are in the window."""
        if not self._samples:
            return None
        return self._samples[0][1]
