"""Tests for the MFAC channel datapath."""

from types import SimpleNamespace

import pytest

from repro.channels.mfac import Channel, ChannelFunction, InboundCounter
from repro.noc.flit import Packet
from repro.noc.routing import Direction
from repro.noc.vc import VirtualChannel


def make_channel(depth=8, links=2, mfac=True, subnets=1):
    return Channel(
        0,
        Direction.EAST,
        1,
        buffer_depth=depth,
        links=links,
        subnetworks=subnets,
        link_latency=1,
        is_mfac=mfac,
    )


def flits(n=4):
    return Packet.create(0, 1, n, cycle=0).make_flits()


class TestGeometry:
    def test_mfac_two_links_four_stages(self):
        ch = make_channel()
        assert ch.stages_per_link == 4
        assert ch.capacity == 8
        assert ch.bandwidth == 2

    def test_wire_has_no_storage(self):
        ch = make_channel(depth=0, links=1, mfac=False)
        assert ch.is_wire
        assert ch.bandwidth == 1

    def test_mfac_requires_two_links(self):
        with pytest.raises(ValueError):
            make_channel(links=1)

    def test_eb_subnetworks_double_resources(self):
        ch = make_channel(depth=8, links=1, mfac=False, subnets=2)
        assert ch.capacity == 16
        assert ch.bandwidth == 2


class TestFunctions:
    def test_retransmission_mode_halves_bandwidth(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        assert ch.bandwidth == 1
        assert ch.capacity == 4  # one link carries data, the other copies

    def test_relaxed_mode_doubles_latency(self):
        ch = make_channel()
        normal = ch.traversal_latency
        ch.set_function(ChannelFunction.RELAXED)
        assert ch.traversal_latency == 2 * normal

    def test_traversal_energy_follows_the_function(self):
        """`traversal_pj` is the power model's link energy of the current
        traversal length, refreshed with the geometry on a function switch
        (a standalone channel, given no model, charges nothing)."""
        assert make_channel().traversal_pj == pytest.approx(0.0)
        ch = Channel(
            0, Direction.EAST, 1, buffer_depth=8, links=2, link_latency=1,
            is_mfac=True, link_energy_pj=lambda stages: 0.25 * stages,
        )
        assert ch.traversal_pj == pytest.approx(0.25)
        ch.set_function(ChannelFunction.RELAXED)
        assert ch.traversal_pj == pytest.approx(0.5)
        ch.set_function(ChannelFunction.NORMAL)
        assert ch.traversal_pj == pytest.approx(0.25)

    def test_non_mfac_cannot_use_extra_functions(self):
        ch = make_channel(mfac=False, links=1)
        with pytest.raises(ValueError):
            ch.set_function(ChannelFunction.RETRANSMISSION)

    def test_function_switch_clears_stale_copies(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        f = flits(1)[0]
        ch.send(f, 0, keep_copy=True)
        ch.set_function(ChannelFunction.NORMAL)
        assert not ch.copies


class TestSendDeliver:
    def test_traversal_latency_respected(self):
        ch = make_channel()
        f = flits(1)[0]
        ch.send(f, cycle=5)
        assert ch.deliverable(5) == []
        ready = ch.deliverable(6)
        assert ready and ready[0][0] is f

    def test_bandwidth_budget_per_cycle(self):
        ch = make_channel()  # bandwidth 2
        fs = flits(4)
        ch.send(fs[0], 0)
        ch.send(fs[1], 0)
        assert not ch.can_accept(0)
        assert ch.can_accept(1)

    def test_capacity_backpressure(self):
        ch = make_channel(depth=4, links=2)
        fs = flits(4)
        ch.send(fs[0], 0)
        ch.send(fs[1], 0)
        ch.send(fs[2], 1)
        ch.send(fs[3], 1)
        assert not ch.can_accept(2)  # full: storage function holds 4

    def test_congestion_signal(self):
        ch = make_channel(depth=4, links=2)
        for i, f in enumerate(flits(4)):
            ch.send(f, i // 2)
        assert ch.congested

    def test_ecc_extra_latency(self):
        ch = make_channel()
        f = flits(1)[0]
        ch.send(f, 0, extra_latency=2)
        assert not ch.deliverable(2)
        assert ch.deliverable(3)

    def test_overflow_raises(self):
        ch = make_channel(depth=2, links=2)
        fs = flits(3)
        ch.send(fs[0], 0)
        ch.send(fs[1], 0)
        with pytest.raises(OverflowError):
            ch.send(fs[2], 0)


class TestRetransmission:
    def test_copies_kept_and_acked(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        f = flits(1)[0]
        ch.send(f, 0, keep_copy=True)
        assert list(ch.copies) == [f]
        ch.acknowledge(f)
        assert not ch.copies

    def test_ack_for_aged_out_copy_is_silent(self):
        """A function switch ages out the copies; the ACK of a flit that
        was still in flight then finds nothing to drop and says nothing —
        whether the copy store is empty or holds other flits' copies."""
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        old, new = flits(2)
        ch.send(old, 0, keep_copy=True)
        ch.set_function(ChannelFunction.NORMAL)  # old's copy ages out
        ch.acknowledge(old)  # empty store: the early return
        assert not ch.copies
        ch.set_function(ChannelFunction.RETRANSMISSION)
        ch.send(new, 1, keep_copy=True)
        ch.acknowledge(old)  # store holds only new's copy
        assert list(ch.copies) == [new]

    def test_ack_outside_retransmission_mode_is_a_no_op(self):
        ch = make_channel()
        f = flits(1)[0]
        ch.send(f, 0)
        ch.acknowledge(f)
        assert not ch.copies and ch.occupancy == 1

    def test_copy_buffer_backpressure(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        packet_flits = flits(8)
        sent = 0
        for cycle in range(16):
            if ch.can_accept(cycle) and sent < 8:
                ch.send(packet_flits[sent], cycle, keep_copy=True)
                sent += 1
            # drain the data queue but never ACK -> copies pile up
            for entry in ch.deliverable(cycle):
                ch.remove(entry)
        assert sent == 4  # stalled once the copy link filled

    def test_nack_resend_preserves_vc_order(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        fs = flits(2)
        ch.send(fs[0], 0, keep_copy=True)
        entry = ch.deliverable(1)[0]
        ch.nack_resend(entry, 1)
        assert ch.flits_retransmitted == 1
        # The replayed flit is at the queue front with a fresh sample slot.
        front = ch.queue[0]
        assert front[0] is fs[0]
        assert front[2] is None

    def test_keep_copy_requires_retransmission_mode(self):
        ch = make_channel()
        with pytest.raises(RuntimeError):
            ch.send(flits(1)[0], 0, keep_copy=True)


class TestOccupancyBookkeeping:
    """`inbound.flits` and `busy` track the queue through every mutator."""

    def test_send_remove_and_replay_keep_the_counters(self):
        inbound, busy = InboundCounter(), set()
        ch = Channel(
            0, Direction.EAST, 1, buffer_depth=8, links=2, is_mfac=True,
            index=5, inbound=inbound, busy=busy,
        )
        ch.set_function(ChannelFunction.RETRANSMISSION)
        a, b = flits(2)
        ch.send(a, 0, keep_copy=True)
        assert (inbound.flits, busy) == (1, {5})
        ch.send(b, 1, keep_copy=True)
        assert (inbound.flits, busy) == (2, {5})
        ch.nack_resend(ch.queue[0], 2)  # one out, one in
        assert (inbound.flits, busy) == (2, {5})
        ch.remove(ch.queue[1])  # out of order: not the front entry
        assert (inbound.flits, busy) == (1, {5})
        ch.nack_resend(ch.queue[0], 3)  # replay of the only entry
        assert (inbound.flits, busy) == (1, {5})
        ch.remove(ch.queue[0])
        assert (inbound.flits, busy) == (0, set())

    def test_channels_into_one_router_share_the_counter(self):
        inbound, busy = InboundCounter(), set()
        east = Channel(0, Direction.EAST, 1, buffer_depth=8, links=2,
                       index=0, inbound=inbound, busy=busy)
        west = Channel(2, Direction.WEST, 1, buffer_depth=8, links=2,
                       index=1, inbound=inbound, busy=busy)
        fs = flits(2)
        east.send(fs[0], 0)
        west.send(fs[1], 0)
        assert (inbound.flits, busy) == (2, {0, 1})
        east.remove(east.queue[0])
        assert (inbound.flits, busy) == (1, {1})

    def test_standalone_channel_keeps_private_counters(self):
        ch = make_channel()
        ch.send(flits(1)[0], 0)
        assert ch.inbound.flits == 1 and ch.busy == {0}


class TestDequeue:
    """`dequeue` is the whole ACK side of a hop in one call."""

    def test_wire_channel_frees_the_upstream_reservation(self):
        inbound, busy = InboundCounter(), set()
        ch = Channel(
            0, Direction.EAST, 1, buffer_depth=0, index=3,
            inbound=inbound, busy=busy,
        )
        # What the upstream switch traversal does for baseline SECDED.
        upstream_vc = VirtualChannel(depth=4)
        owner = SimpleNamespace(_reserved_count=0)
        for cycle, flit in enumerate(flits(3)):
            ch.send(flit, cycle)
            upstream_vc.reserve()
            owner._reserved_count += 1
            ch.pending_acks[flit] = (upstream_vc, owner)
        front, middle, last = ch.queue

        ch.dequeue(middle)  # a drop sweep excises mid-queue
        assert [e[0] for e in ch.queue] == [front[0], last[0]]
        assert middle[0] not in ch.pending_acks
        assert (upstream_vc.reserved, owner._reserved_count) == (2, 2)
        assert (inbound.flits, busy) == (2, {3})

        ch.dequeue(front)  # delivery and the bypass take the oldest
        ch.dequeue(last)
        assert not ch.queue and not ch.pending_acks
        assert (upstream_vc.reserved, owner._reserved_count) == (0, 0)
        assert (inbound.flits, busy) == (0, set())

    def test_mfac_drops_the_retransmission_copy(self):
        ch = make_channel()
        ch.set_function(ChannelFunction.RETRANSMISSION)
        a, b = flits(2)
        ch.send(a, 0, keep_copy=True)
        ch.send(b, 1, keep_copy=True)
        ch.dequeue(ch.queue[1])
        assert list(ch.copies) == [a]
        ch.dequeue(ch.queue[0])
        assert not ch.copies and ch.inbound.flits == 0 and not ch.busy

    def test_nack_keeps_the_reservation(self):
        ch = Channel(0, Direction.EAST, 1, buffer_depth=0)
        upstream_vc = VirtualChannel(depth=4)
        owner = SimpleNamespace(_reserved_count=1)
        (flit,) = flits(1)
        ch.send(flit, 0)
        upstream_vc.reserve()
        ch.pending_acks[flit] = (upstream_vc, owner)
        ch.nack_resend(ch.queue[0], 2)
        assert (upstream_vc.reserved, owner._reserved_count) == (1, 1)
        ch.dequeue(ch.queue[0])
        assert (upstream_vc.reserved, owner._reserved_count) == (0, 0)


class TestStats:
    def test_stored_flits_counts_only_overdue(self):
        ch = make_channel()
        fs = flits(2)
        ch.send(fs[0], 0)
        ch.send(fs[1], 0)
        assert ch.stored_flits(0) == 0  # still in flight
        assert ch.stored_flits(5) == 2  # held by congestion

    def test_remove_unknown_entry_rejected(self):
        ch = make_channel()
        with pytest.raises(ValueError):
            ch.remove([None, 0, None])
