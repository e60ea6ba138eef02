"""Tests for the paper's convergence stop rule."""

import pytest

from repro.analysis.convergence import ConvergenceTracker


class TestTracker:
    def test_flips_once_stable(self):
        tracker = ConvergenceTracker(window=5.0, tolerance=0.01)
        verdicts = [tracker.observe(float(t), 10.0) for t in range(10)]
        assert verdicts[0] is False
        assert verdicts[-1] is True
        assert tracker.converged_at == 5.0

    def test_never_converges_on_growth(self):
        tracker = ConvergenceTracker(window=5.0, tolerance=0.01)
        for t in range(50):
            tracker.observe(float(t), float(t + 1))
        assert not tracker.converged

    def test_out_of_order_samples_rejected(self):
        tracker = ConvergenceTracker(5.0)
        tracker.observe(1.0, 1.0)
        with pytest.raises(ValueError):
            tracker.observe(0.5, 1.0)

    def test_window_trimming_bounds_memory(self):
        tracker = ConvergenceTracker(window=2.0, tolerance=1e-9)
        for t in range(1000):
            tracker.observe(float(t), float(t % 7))
        assert len(tracker._times) < 10

    def test_within_tolerance(self):
        times = [0.0, 1.0, 2.0, 3.0, 4.0]
        values = [100.0, 100.4, 99.8, 100.2, 100.0]
        loose = ConvergenceTracker(window=3.0, tolerance=0.01)
        strict = ConvergenceTracker(window=3.0, tolerance=0.001)
        for t, v in zip(times, values):
            loose.observe(t, v)
            strict.observe(t, v)
        # A 0.6% spread passes a 1% tolerance but not a 0.1% one.
        assert loose.converged_at == 3.0
        assert not strict.converged

    def test_series_shorter_than_window(self):
        tracker = ConvergenceTracker(window=5.0)
        assert not tracker.observe(0.0, 1.0)
        assert not tracker.observe(1.0, 1.0)

    def test_old_instability_ignored(self):
        tracker = ConvergenceTracker(window=5.0)
        for t in range(30):
            tracker.observe(float(t), float(t) if t < 20 else 100.0)
        # Stable from t=20; the first window holding only the plateau
        # ends at t=25, and the ramp before it is forgotten.
        assert tracker.converged_at == 25.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceTracker(window=0.0)
