"""Tests for unit conversion helpers."""

import pytest

from repro import units


def test_rate_conversions():
    assert units.mbps(100) == 100_000_000
    assert units.gbps(10) == 10_000_000_000
    assert units.to_mbps(units.mbps(42)) == 42


def test_size_conversions():
    assert units.megabytes(3) == 3_000_000


def test_bdp():
    # 100 Mbps * 200 ms = 2.5 MB.
    assert units.bdp_bytes(units.mbps(100), 0.2) == 2_500_000
    assert units.bdp_packets(units.mbps(100), 0.2) == pytest.approx(2_500_000 / 1500)


def test_bdp_validation():
    with pytest.raises(ValueError):
        units.bdp_bytes(-1, 0.1)
    with pytest.raises(ValueError):
        units.bdp_packets(units.mbps(1), 0.1, packet_bytes=0)


def test_paper_constants():
    assert units.MSS == 1448
    assert units.DATA_PACKET_BYTES == 1500
    assert units.ACK_PACKET_BYTES == 40
