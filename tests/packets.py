"""The one way tests build a :class:`~repro.sim.packet.Packet`.

``Packet`` has no ``__init__``: the sender and the receiver fill its six
slots in place. Tests build theirs here, with the defaults of a
full-sized data segment.
"""

from __future__ import annotations

from typing import Tuple

from repro.sim.packet import Packet, SackBlock
from repro.units import DATA_PACKET_BYTES


def make_packet(
    flow_id: int,
    seq: int = 0,
    size: int = DATA_PACKET_BYTES,
    is_ack: bool = False,
    ack_seq: int = 0,
    sack_blocks: Tuple[SackBlock, ...] = (),
) -> Packet:
    packet = Packet.__new__(Packet)
    packet.flow_id = flow_id
    packet.seq = seq
    packet.size = size
    packet.is_ack = is_ack
    packet.ack_seq = ack_seq
    packet.sack_blocks = sack_blocks
    return packet
