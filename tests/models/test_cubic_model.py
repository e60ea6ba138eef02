"""Tests for the CUBIC response-function model."""

import pytest

from repro.models.cubic_model import cubic_constant, cubic_throughput


def test_leading_constant_value():
    # (0.4 * 3.7 / 1.2)^(1/4) ~= 1.054 for RFC 8312 parameters.
    assert cubic_constant() == pytest.approx(1.054, rel=0.01)


def test_p_power_three_quarters():
    t1 = cubic_throughput(1448, 0.1, 0.001)
    t2 = cubic_throughput(1448, 0.1, 0.016)  # 16x the loss
    assert t1 / t2 == pytest.approx(16 ** 0.75, rel=1e-6)


def test_weak_rtt_dependence():
    t1 = cubic_throughput(1448, 0.02, 0.001)
    t2 = cubic_throughput(1448, 0.32, 0.001)  # 16x the RTT
    assert t1 / t2 == pytest.approx(16 ** 0.25, rel=1e-6)


def test_validation():
    with pytest.raises(ValueError):
        cubic_throughput(1448, 0.0, 0.01)
    with pytest.raises(ValueError):
        cubic_throughput(1448, 0.1, 0.0)
    with pytest.raises(ValueError):
        cubic_constant(c=0.0)
