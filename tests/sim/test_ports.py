"""Port protocol and packet semantics."""

import pytest

from repro.sim.packet import MemCmd, Packet, read_packet, write_packet
from repro.sim.ports import MasterPort, PortError, SlavePort, connect


def _pair(accept=True):
    received = []
    responses = []
    slave = SlavePort(
        "s",
        recv_timing_req=lambda pkt: (received.append(pkt), accept)[1],
        recv_functional=lambda pkt: pkt.make_response(
            data=bytes(pkt.size) if pkt.is_read else None
        ),
    )
    master = MasterPort("m", recv_timing_resp=responses.append)
    connect(master, slave)
    return master, slave, received, responses


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(MemCmd.READ, 0, 0)
    with pytest.raises(ValueError):
        Packet(MemCmd.WRITE, 0, 8)  # write without data
    with pytest.raises(ValueError):
        Packet(MemCmd.WRITE, 0, 8, data=b"xy")  # wrong length


def test_packet_response_matching():
    pkt = read_packet(0x100, 8, origin="me")
    resp = pkt.make_response(data=b"12345678")
    assert resp.pkt_id == pkt.pkt_id
    assert resp.origin == "me"
    assert resp.cmd is MemCmd.READ_RESP
    assert not resp.is_request


def test_read_response_requires_data():
    with pytest.raises(ValueError):
        read_packet(0, 4).make_response()


def test_packet_overlap():
    pkt = read_packet(100, 8)
    assert pkt.overlaps(104, 2)
    assert pkt.overlaps(96, 8)
    assert not pkt.overlaps(108, 4)
    assert not pkt.overlaps(92, 8)


def test_timing_request_flows_to_slave():
    master, slave, received, responses = _pair()
    pkt = write_packet(0x10, b"\x01" * 4)
    assert master.send_timing_req(pkt)
    assert received == [pkt]
    assert master.reqs_sent == 1


def test_denied_request_not_counted():
    master, __, __, __ = _pair(accept=False)
    assert not master.send_timing_req(read_packet(0, 4))
    assert master.reqs_sent == 0


def test_response_flows_back():
    master, slave, __, responses = _pair()
    pkt = read_packet(0, 4)
    master.send_timing_req(pkt)
    slave.send_timing_resp(pkt.make_response(data=b"\x00" * 4))
    assert len(responses) == 1
    assert responses[0].pkt_id == pkt.pkt_id


def test_functional_roundtrip():
    master, __, __, __ = _pair()
    resp = master.send_functional(read_packet(0, 16))
    assert resp.data == bytes(16)


def test_unbound_port_raises():
    master = MasterPort("m", recv_timing_resp=lambda p: None)
    with pytest.raises(PortError):
        master.send_timing_req(read_packet(0, 4))


def test_rebinding_rejected():
    master, slave, __, __ = _pair()
    other = SlavePort("s2", recv_timing_req=lambda p: True)
    with pytest.raises(PortError):
        master.bind(other)


def test_response_through_request_path_rejected():
    master, slave, __, __ = _pair()
    pkt = read_packet(0, 4)
    with pytest.raises(PortError):
        master.send_timing_req(pkt.make_response(data=b"aaaa"))


def test_retry_notification():
    retries = []
    slave = SlavePort("s", recv_timing_req=lambda p: False)
    master = MasterPort(
        "m", recv_timing_resp=lambda p: None, recv_retry=lambda: retries.append(1)
    )
    connect(master, slave)
    master.send_timing_req(read_packet(0, 4))
    slave.send_retry()
    assert retries == [1]


def test_response_is_made_in_place():
    pkt = write_packet(0x40, b"\x07" * 8, origin="req", agent="acc")
    pkt.req_tick = 1234
    pkt_id = pkt.pkt_id
    resp = pkt.make_response()
    assert resp is pkt
    assert resp.cmd is MemCmd.WRITE_RESP and resp.data is None
    assert (resp.pkt_id, resp.origin, resp.agent, resp.req_tick) == (
        pkt_id, "req", "acc", 1234)
    assert resp.is_write and not resp.is_request


def test_response_of_a_response_rejected():
    resp = read_packet(0, 4).make_response(data=b"abcd")
    with pytest.raises(ValueError):
        resp.make_response(data=b"abcd")
    with pytest.raises(ValueError):
        write_packet(0, b"ab").make_response().make_response()


def test_command_flags_are_fixed_per_command():
    flags = {cmd: (cmd.is_request, cmd.is_read, cmd.is_write) for cmd in MemCmd}
    assert flags == {MemCmd.READ: (True, True, False),
                     MemCmd.WRITE: (True, False, True),
                     MemCmd.READ_RESP: (False, True, False),
                     MemCmd.WRITE_RESP: (False, False, True)}


def test_packet_carries_no_route_annotations():
    pkt = read_packet(0, 4)
    for name in ("hops", "hit_level"):
        assert not hasattr(pkt, name)
        with pytest.raises(AttributeError):
            setattr(pkt, name, [])
