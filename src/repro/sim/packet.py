"""Packet representation.

Packets are deliberately lightweight: a single slotted class covers both
data segments and ACKs. The simulator moves millions of these per run, so
no dataclass machinery or dictionaries are used.

Sequence numbers count MSS-sized segments (packet number space), the
standard simulator simplification — every CCA in this library operates
per-MSS anyway, mirroring how the Linux stack tracks ``packets_out``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..units import DATA_PACKET_BYTES

#: Type alias for a SACK block: a half-open packet-number range.
SackBlock = Tuple[int, int]


class Packet:
    """A data segment or an ACK travelling through the simulated network.

    Attributes
    ----------
    flow_id:
        Identifier of the owning flow; used by queues/monitors to
        attribute drops and by receivers to route.
    seq:
        Packet number of a data segment (index in MSS units).
    size:
        Wire size in bytes, used for serialisation delay and buffer
        occupancy.
    is_ack:
        True for ACK packets travelling the reverse path.
    ack_seq:
        Cumulative ACK: the next packet number expected by the receiver.
    sack_blocks:
        Up to three out-of-order ranges (the TCP SACK option limit): the
        range holding the segment that triggered the ACK first, then the
        lowest other ranges in ascending order.
    """

    __slots__ = (
        "flow_id",
        "seq",
        "size",
        "is_ack",
        "ack_seq",
        "sack_blocks",
    )

    def __init__(
        self,
        flow_id: int,
        seq: int = 0,
        size: int = DATA_PACKET_BYTES,
        is_ack: bool = False,
        ack_seq: int = 0,
        sack_blocks: Optional[Tuple[SackBlock, ...]] = None,
    ) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.sack_blocks = sack_blocks or ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_ack:
            return f"Ack(flow={self.flow_id}, ack={self.ack_seq}, sack={self.sack_blocks})"
        return f"Data(flow={self.flow_id}, seq={self.seq}, size={self.size})"
