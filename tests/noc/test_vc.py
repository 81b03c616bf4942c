"""Tests for virtual channels and input ports."""

import pytest

from repro.noc.flit import Packet
from repro.noc.routing import Direction
from repro.noc.vc import InputPort, VcState, VirtualChannel


def make_flits(size=4, src=0, dst=1):
    return Packet.create(src, dst, size, cycle=0).make_flits()


class TestVirtualChannel:
    def test_push_head_enters_routing(self):
        vc = VirtualChannel(4)
        head = make_flits()[0]
        vc.push(head, cycle=0)
        assert vc.state is VcState.ROUTING
        assert vc.occupancy == 1

    def test_head_into_busy_vc_rejected(self):
        vc = VirtualChannel(4)
        flits = make_flits()
        vc.push(flits[0], 0)
        other_head = make_flits()[0]
        with pytest.raises(RuntimeError):
            vc.push(other_head, 1)

    def test_overflow_rejected(self):
        vc = VirtualChannel(2)
        flits = make_flits(4)
        vc.push(flits[0], 0)
        vc.push(flits[1], 0)
        with pytest.raises(OverflowError):
            vc.push(flits[2], 0)

    def test_fifo_order(self):
        vc = VirtualChannel(4)
        flits = make_flits(3)
        for f in flits:
            vc.push(f, 0)
        assert [vc.pop() for _ in range(3)] == flits

    def test_reservation_consumes_capacity(self):
        vc = VirtualChannel(2)
        flits = make_flits()
        vc.push(flits[0], 0)
        vc.pop()
        vc.reserve()
        vc.reserve()
        assert not vc.can_accept()
        vc.release()
        assert vc.can_accept()

    def test_release_without_reserve_rejected(self):
        with pytest.raises(RuntimeError):
            VirtualChannel(2).release()

    def test_close_packet_resets_state(self):
        vc = VirtualChannel(4)
        vc.push(make_flits()[0], 0)
        vc.state = VcState.ACTIVE
        vc.route = Direction.EAST
        vc.out_vc = 2
        vc.pop()
        vc.close_packet()
        assert vc.state is VcState.IDLE
        assert vc.route is None and vc.out_vc is None

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            VirtualChannel(0)


class TestInputPort:
    def test_free_vc_skips_claimed(self):
        port = InputPort(Direction.EAST, 2, 4)
        packet = Packet.create(0, 1, 4, cycle=0)
        port.claim(0, packet)
        assert port.vcs[0].owner is packet
        assert port.vcs[1].owner is None
        assert port.free_vc_for_head() == 1

    def test_free_vc_skips_busy(self):
        port = InputPort(Direction.EAST, 2, 4)
        port.vcs[0].push(make_flits()[0], 0)
        assert port.free_vc_for_head() == 1

    def test_no_free_vc(self):
        port = InputPort(Direction.EAST, 1, 4)
        port.claim(0, Packet.create(0, 1, 4, cycle=0))
        assert port.free_vc_for_head() is None

    def test_double_claim_rejected(self):
        port = InputPort(Direction.EAST, 2, 4)
        first = Packet.create(0, 1, 4, cycle=0)
        port.claim(1, first)
        with pytest.raises(RuntimeError):
            port.claim(1, Packet.create(0, 1, 4, cycle=0))
        assert port.vcs[1].owner is first

    def test_unclaim_is_idempotent(self):
        port = InputPort(Direction.EAST, 2, 4)
        port.claim(1, Packet.create(0, 1, 4, cycle=0))
        port.unclaim(1)
        port.unclaim(1)
        assert port.vcs[1].owner is None
        assert port.free_vc_for_head() == 0

    def test_occupancy_accounting(self):
        port = InputPort(Direction.EAST, 2, 4)
        flits = make_flits(3)
        for f in flits:
            port.vcs[0].push(f, 0)
        assert port.total_occupancy() == 3
        assert port.total_capacity() == 8
