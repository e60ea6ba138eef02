"""Tests for the Packet representation."""

from repro.sim.packet import Packet
from repro.units import ACK_PACKET_BYTES, DATA_PACKET_BYTES


def test_data_constructor():
    p = Packet(5, 42)
    assert p.flow_id == 5
    assert p.seq == 42
    assert p.size == DATA_PACKET_BYTES
    assert not p.is_ack
    assert p.sack_blocks == ()


def test_ack_constructor():
    # The positional form TcpReceiver builds its ACKs with.
    a = Packet(3, 0, ACK_PACKET_BYTES, True, 17, ((20, 25),))
    assert a.flow_id == 3
    assert a.is_ack
    assert a.ack_seq == 17
    assert a.sack_blocks == ((20, 25),)
    assert a.size == ACK_PACKET_BYTES


def test_custom_size():
    p = Packet(0, 0, size=576)
    assert p.size == 576


def test_slots_prevent_new_attributes():
    p = Packet(0, 0)
    try:
        p.bogus = 1
    except AttributeError:
        pass
    else:
        raise AssertionError("Packet should be slotted")
