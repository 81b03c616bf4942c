"""Tests for per-node source queues."""

import pytest

from repro.noc.flit import Packet
from repro.traffic.injection import SourceQueue


def packet(src=0, dst=1, size=4):
    return Packet.create(src, dst, size, cycle=0)


class TestSourceQueue:
    def test_flits_come_out_in_order(self):
        q = SourceQueue(0)
        p = packet()
        q.enqueue(p)
        flits = [q.pop() for _ in range(4)]
        assert [f.seq for f in flits] == [0, 1, 2, 3]
        assert flits[0].is_head and flits[3].is_tail
        assert q.is_empty()

    def test_peek_does_not_consume(self):
        q = SourceQueue(0)
        q.enqueue(packet())
        assert q.peek() is q.peek()
        assert not q.is_empty()

    def test_packets_serialize(self):
        q = SourceQueue(0)
        p1, p2 = packet(), packet(dst=2)
        q.enqueue(p1)
        q.enqueue(p2)
        for _ in range(4):
            assert q.pop().packet is p1
        assert q.pop().packet is p2

    def test_wrong_source_rejected(self):
        q = SourceQueue(3)
        with pytest.raises(ValueError):
            q.enqueue(packet(src=0))

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            SourceQueue(0).pop()

    def test_requeue_front_jumps_queue(self):
        q = SourceQueue(0)
        retry, fresh = packet(dst=5), packet(dst=6)
        q.enqueue(fresh)
        q.requeue_front(retry)
        assert q.pop().packet is retry

    def test_requeue_mid_injection_follows_the_open_packet(self):
        """An end-to-end retry requeued while another packet is half
        injected must not split that packet's flit train: it goes out
        right after it, ahead of everything still queued."""
        q = SourceQueue(0)
        in_flight, queued, retry = packet(dst=4), packet(dst=5), packet(dst=6)
        q.enqueue(in_flight)
        q.enqueue(queued)
        assert q.pop().packet is in_flight  # head out, three flits to go
        q.requeue_front(retry)
        order = []
        while not q.is_empty():
            order.append(q.pop().packet)
        assert order == [in_flight] * 3 + [retry] * 4 + [queued] * 4

    def test_a_peeked_packet_stays_ahead_of_a_later_retry(self):
        """`peek` draws the next packet's flit train, and that alone fixes
        its place: a retry requeued afterwards waits for it although none
        of its flits has gone out.  A gated router's bypass raises its
        local request line with `peek` every cycle and relies on this; an
        emptiness test in its place lets the retry overtake (the contrast
        below), which reorders injections."""
        peeked, plain = SourceQueue(0), SourceQueue(0)
        for q in (peeked, plain):
            q.enqueue(packet(dst=4))
        assert peeked.peek().is_head and peeked.flits_popped == 0
        assert not plain.is_empty()  # looked at, not peeked
        retry = packet(dst=6)
        for q in (peeked, plain):
            q.requeue_front(retry)
        assert [peeked.pop().packet.dst for _ in range(8)] == [4] * 4 + [6] * 4
        assert [plain.pop().packet.dst for _ in range(8)] == [6] * 4 + [4] * 4

    def test_pending_packet_count(self):
        q = SourceQueue(0)
        q.enqueue(packet())
        q.enqueue(packet(dst=2))
        assert q.pending_packets == 2
        q.pop()  # start the first packet
        assert q.pending_packets == 2  # one mid-injection + one queued

    def test_current_packet_tracks_open_packet(self):
        q = SourceQueue(0)
        p = packet()
        q.enqueue(p)
        q.pop()
        assert q.current_packet() is p
