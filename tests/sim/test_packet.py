"""Tests for the Packet representation.

``Packet`` has no ``__init__``; the sender and the receiver build every
packet with ``__new__`` and slot stores. The first two tests read every
slot of a packet each of them built, so a slot either one leaves unset
fails here with an ``AttributeError``.
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.tcp.cca.newreno import NewReno
from repro.tcp.connection import TcpReceiver, TcpSender
from repro.units import ACK_PACKET_BYTES, DATA_PACKET_BYTES
from tests.packets import make_packet


class _Log:
    def __init__(self) -> None:
        self.packets = []

    def send(self, packet: Packet, at: float = 0.0) -> None:
        self.packets.append(packet)


def _slots(packet: Packet):
    return {name: getattr(packet, name) for name in Packet.__slots__}


def test_data_constructor():
    wire = _Log()
    TcpSender(Simulator(sanitize=False), 5, NewReno(), path=wire).start()
    assert _slots(wire.packets[1]) == {
        "flow_id": 5,
        "seq": 1,
        "size": DATA_PACKET_BYTES,
        "is_ack": False,
        "ack_seq": 0,
        "sack_blocks": (),
    }


def test_ack_constructor():
    log = _Log()
    receiver = TcpReceiver(Simulator(sanitize=False), 3, log)
    receiver.send(make_packet(3, 0), 0.0)
    receiver.send(make_packet(3, 2), 0.0)
    assert _slots(log.packets[0]) == {
        "flow_id": 3,
        "seq": 0,
        "size": ACK_PACKET_BYTES,
        "is_ack": True,
        "ack_seq": 1,
        "sack_blocks": ((2, 3),),
    }


def test_custom_size():
    p = make_packet(0, 0, size=576)
    assert p.size == 576


def test_slots_prevent_new_attributes():
    p = make_packet(0, 0)
    with pytest.raises(AttributeError):
        p.bogus = 1
    with pytest.raises(TypeError):
        Packet(0, 0)  # no __init__ to take the arguments
