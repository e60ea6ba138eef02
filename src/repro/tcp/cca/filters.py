"""The windowed max filter BBR keeps its bottleneck bandwidth in.

BBR tracks the bottleneck bandwidth as a windowed maximum of delivery
rate samples over ~10 round trips; the window is keyed by round count.
(BBR keeps its RTprop minimum itself, in ``rtprop``/``rtprop_stamp``.)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple


class WindowedFilter:
    """Tracks the maximum of a stream of samples over a sliding window.

    Parameters
    ----------
    window:
        Width of the window on whatever axis ``update`` receives.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque()  # (time, value)

    def update(self, value: float, time: float) -> float:
        """Insert a sample observed at ``time``; returns the new maximum."""
        samples = self._samples
        # Evict samples dominated by the new one.
        while samples and value >= samples[-1][1]:
            samples.pop()
        samples.append((time, value))
        # Evict samples that have aged out of the window.
        horizon = time - self.window
        while samples and samples[0][0] < horizon:
            samples.popleft()
        return samples[0][1]
