"""Tests for the Ware et al. BBR-vs-loss-based share model."""

import pytest

from repro.models.ware_bbr import (
    EMPIRICAL_NEUTRAL_SHARE,
    predict_bbr_share,
    probe_sample_share,
)


def test_neutral_band_returns_empirical_share():
    assert predict_bbr_share(1.0) == EMPIRICAL_NEUTRAL_SHARE
    assert predict_bbr_share(0.8) == EMPIRICAL_NEUTRAL_SHARE


def test_small_buffers_let_bbr_saturate():
    assert predict_bbr_share(0.1) == pytest.approx(1.0)
    assert predict_bbr_share(0.5) == pytest.approx(1.0)


def test_huge_buffers_starve_bbr():
    assert predict_bbr_share(5.0) < 0.05


def test_share_bounded():
    for q in (0.0, 0.3, 0.6, 1.0, 2.0, 10.0):
        assert 0.0 <= predict_bbr_share(q) <= 1.0


def test_probe_sample_share_components():
    # Window-limited regime: cwnd_gain*b/(1+q) binds for deep buffers.
    assert probe_sample_share(0.4, 1.0) == pytest.approx(0.4)
    # Pacing-limited regime: probe_gain*b binds for shallow buffers.
    assert probe_sample_share(0.4, 0.1) == pytest.approx(0.5)


def test_validation():
    with pytest.raises(ValueError):
        predict_bbr_share(-0.1)
    with pytest.raises(ValueError):
        probe_sample_share(-1.0, 1.0)
