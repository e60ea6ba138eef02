"""Packet representation.

Packets are deliberately lightweight: a single slotted class covers both
data segments and ACKs. The simulator moves millions of these per run, so
no dataclass machinery or dictionaries are used.

Sequence numbers count MSS-sized segments (packet number space), the
standard simulator simplification — every CCA in this library operates
per-MSS anyway, mirroring how the Linux stack tracks ``packets_out``.
"""

from __future__ import annotations

from typing import Tuple

#: Type alias for a SACK block: a half-open packet-number range.
SackBlock = Tuple[int, int]


class Packet:
    """A data segment or an ACK travelling through the simulated network.

    There is no ``__init__``: ``TcpSender._try_send`` builds each data
    segment and ``TcpReceiver._send_ack`` each ACK with ``__new__`` and
    six slot stores, so a packet costs no Python call of its own. Every
    slot is set on every packet.

    Attributes
    ----------
    flow_id:
        Identifier of the owning flow; used by queues/monitors to
        attribute drops and by receivers to route.
    seq:
        Packet number of a data segment (index in MSS units); 0 on an
        ACK.
    size:
        Wire size in bytes, used for serialisation delay and buffer
        occupancy.
    is_ack:
        True for ACK packets travelling the reverse path.
    ack_seq:
        Cumulative ACK: the next packet number expected by the receiver;
        0 on a data segment.
    sack_blocks:
        Up to three out-of-order ranges (the TCP SACK option limit): the
        range holding the segment that triggered the ACK first, then the
        lowest other ranges in ascending order. Empty on a data segment.
    """

    __slots__ = (
        "flow_id",
        "seq",
        "size",
        "is_ack",
        "ack_seq",
        "sack_blocks",
    )

    flow_id: int
    seq: int
    size: int
    is_ack: bool
    ack_seq: int
    sack_blocks: Tuple[SackBlock, ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_ack:
            return f"Ack(flow={self.flow_id}, ack={self.ack_seq}, sack={self.sack_blocks})"
        return f"Data(flow={self.flow_id}, seq={self.seq}, size={self.size})"
