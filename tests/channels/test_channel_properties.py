"""Property-based tests on channel flow-control invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.channels.mfac import Channel, ChannelFunction
from repro.noc.flit import Packet
from repro.noc.routing import Direction


def fresh_channel(depth, links, function):
    ch = Channel(
        0, Direction.EAST, 1,
        buffer_depth=depth, links=links, link_latency=1,
        is_mfac=links >= 2,
    )
    if function is not ChannelFunction.NORMAL:
        ch.set_function(function)
    return ch


operations = st.lists(
    st.sampled_from(["send", "deliver", "nack", "tick"]), min_size=1, max_size=120
)
functions = st.sampled_from(list(ChannelFunction))


class TestChannelInvariants:
    @given(operations, functions)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, ops, function):
        ch = fresh_channel(8, 2, function)
        flits = iter(Packet.create(0, 1, 200, 0).make_flits())
        cycle = 0
        in_channel = 0
        for op in ops:
            if op == "send" and ch.can_accept(cycle):
                ch.send(
                    next(flits), cycle,
                    keep_copy=function is ChannelFunction.RETRANSMISSION,
                )
                in_channel += 1
            elif op == "deliver":
                ready = ch.deliverable(cycle)
                if ready:
                    entry = ready[0]
                    ch.remove(entry)
                    ch.acknowledge(entry[0])
                    in_channel -= 1
            elif op == "nack":
                ready = ch.deliverable(cycle)
                if ready:
                    ch.nack_resend(ready[0], cycle)
            else:
                cycle += 1
            assert len(ch.queue) <= ch.capacity
            assert len(ch.queue) == in_channel
            if function is ChannelFunction.RETRANSMISSION:
                assert len(ch.copies) <= ch.stages_per_link

    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_per_flit_order_preserved_without_nack(self, ops):
        """Flits delivered from a NORMAL channel come out in send order."""
        ch = fresh_channel(8, 2, ChannelFunction.NORMAL)
        flits = iter(Packet.create(0, 1, 200, 0).make_flits())
        sent, delivered = [], []
        cycle = 0
        for op in ops:
            if op in ("send", "nack") and ch.can_accept(cycle):
                f = next(flits)
                ch.send(f, cycle)
                sent.append(f)
            elif op == "deliver":
                ready = ch.deliverable(cycle)
                if ready:
                    ch.remove(ready[0])
                    delivered.append(ready[0][0])
            else:
                cycle += 1
        assert delivered == sent[: len(delivered)]

    @given(st.integers(0, 40), functions)
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_budget_enforced(self, extra_attempts, function):
        ch = fresh_channel(8, 2, function)
        flits = iter(Packet.create(0, 1, 100, 0).make_flits())
        accepted = 0
        for _ in range(ch.bandwidth + extra_attempts):
            if ch.can_accept(0):
                ch.send(
                    next(flits), 0,
                    keep_copy=function is ChannelFunction.RETRANSMISSION,
                )
                accepted += 1
        assert accepted <= ch.bandwidth


class TestSendAgainstCanAccept:
    """`send` tests its overflow conditions in line; `can_accept` is their
    definition.  The grid is small enough to walk whole."""

    GRID = dict(
        geometry=[(0, 1), (4, 1), (8, 2), (2, 2)],  # (buffer depth, links)
        function=list(ChannelFunction),
        queued=range(10),
        copies=range(6),
        down=[False, True],
        spent=range(4),  # flits already accepted in the budget's cycle
        budget_is_this_cycle=[False, True],
    )

    def test_send_overflows_exactly_when_can_accept_says_no(self):
        outcomes = set()
        for case in itertools.product(*self.GRID.values()):
            (depth, links), function, *_ = case
            if links >= 2 or function is ChannelFunction.NORMAL:
                outcomes.add(self.check(*case))
        assert outcomes == {True, False}

    def check(self, geometry, function, queued, copies, down, spent, budget_is_this_cycle):
        ch = fresh_channel(*geometry, function)
        cycle = 50
        flits = iter(Packet.create(0, 1, 20, 0).make_flits())
        # Queue contents, copy link, outage and the spent bandwidth.
        ch.queue.extend([next(flits), cycle - 5, None] for _ in range(queued))
        ch.inbound.flits = queued
        if queued:
            ch.busy.add(ch.index)
        keep_copy = function is ChannelFunction.RETRANSMISSION
        if keep_copy:
            ch.copies.extend(next(flits) for _ in range(copies))
        ch.set_down(down)
        ch._cycle_of_budget = cycle if budget_is_this_cycle else cycle - 1
        ch._accepted_this_cycle = spent

        def state():
            return (
                len(ch.queue), len(ch.copies), ch.inbound.flits, set(ch.busy),
                ch._cycle_of_budget, ch._accepted_this_cycle,
            )

        acceptable = ch.can_accept(cycle)
        before = state()
        try:
            ch.send(next(flits), cycle, keep_copy=keep_copy)
        except OverflowError:
            assert not acceptable
            assert state() == before  # a refused send changes nothing
        else:
            assert acceptable
            assert state() == (
                queued + 1,
                before[1] + keep_copy,
                queued + 1,
                {ch.index},
                cycle,
                spent + 1 if budget_is_this_cycle else 1,
            )
        return acceptable
