"""Experiment convergence detection.

The paper runs each experiment "until the metric being evaluated changes
by less than 1% over 20 minutes" (or a 3-hour cap). This module
implements that stop rule generically over a sampled metric time series,
with the window expressed as a fraction of run length so scaled-down
runs can apply it proportionally.
"""

from __future__ import annotations

from typing import List, Optional


class ConvergenceTracker:
    """Streaming stop rule over a sampled metric.

    Feed it time-ordered ``observe(time, value)`` samples; ``converged``
    flips to True once the samples span a full trailing ``window`` and
    stayed within ``tolerance`` (relative to the window's maximum) over
    it.
    """

    def __init__(self, window: float, tolerance: float = 0.01) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.tolerance = tolerance
        self.converged = False
        self.converged_at: Optional[float] = None
        self._times: List[float] = []
        self._values: List[float] = []

    def observe(self, time: float, value: float) -> bool:
        """Add a sample; returns the current convergence verdict."""
        if self._times and time < self._times[-1]:
            raise ValueError("samples must be time-ordered")
        self._times.append(time)
        self._values.append(value)
        # Trim samples older than one window before the newest.
        horizon = time - self.window
        cut = 0
        while cut < len(self._times) - 1 and self._times[cut + 1] <= horizon:
            cut += 1
        if cut:
            del self._times[:cut]
            del self._values[:cut]
        if not self.converged and self._spans_window() and self._stable():
            self.converged = True
            self.converged_at = time
        return self.converged

    def _spans_window(self) -> bool:
        return len(self._times) >= 2 and self._times[-1] - self._times[0] >= self.window

    def _stable(self) -> bool:
        lo, hi = min(self._values), max(self._values)
        if hi == 0:
            return True
        return (hi - lo) / abs(hi) <= self.tolerance
