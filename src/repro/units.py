"""Unit conventions and conversion helpers.

Internal conventions used across the library:

- **time** is a ``float`` in seconds,
- **sizes** are ``int`` bytes,
- **rates** are ``float`` bits per second,
- **sequence numbers** count MSS-sized packets.

These helpers exist so that scenario definitions read like the paper
("10 Gbps bottleneck, 375 MB buffer, 20 ms RTT") rather than like raw
floats.
"""

from __future__ import annotations

#: Default maximum segment size, matching the paper (1448 payload bytes).
MSS = 1448

#: Wire size of a full-MSS data packet (payload + 52 bytes of headers).
DATA_PACKET_BYTES = 1500

#: Wire size of a pure ACK.
ACK_PACKET_BYTES = 40

MEGA = 1_000_000
GIGA = 1_000_000_000


def mbps(value: float) -> float:
    """Convert megabits per second to bits per second."""
    return value * MEGA


def gbps(value: float) -> float:
    """Convert gigabits per second to bits per second."""
    return value * GIGA


def to_mbps(rate_bps: float) -> float:
    """Convert bits per second to megabits per second."""
    return rate_bps / MEGA


def megabytes(value: float) -> int:
    """Convert megabytes to bytes (rounded down)."""
    return int(value * MEGA)


def bdp_bytes(rate_bps: float, rtt_s: float) -> int:
    """Bandwidth-delay product in bytes for a link rate and an RTT.

    This is the rule of thumb the paper uses to size the bottleneck
    buffer (1 BDP at an assumed maximum RTT of 200 ms).
    """
    if rate_bps < 0 or rtt_s < 0:
        raise ValueError("rate and rtt must be non-negative")
    return int(rate_bps * rtt_s / 8.0)


def bdp_packets(rate_bps: float, rtt_s: float, packet_bytes: int = DATA_PACKET_BYTES) -> float:
    """Bandwidth-delay product expressed in packets of ``packet_bytes``."""
    if packet_bytes <= 0:
        raise ValueError("packet_bytes must be positive")
    return bdp_bytes(rate_bps, rtt_s) / packet_bytes
