"""Tests for round-robin arbitration."""

import pytest
from hypothesis import given, strategies as st

from repro.noc.arbiter import RoundRobinArbiter


class TestGrant:
    def test_rotates_among_requesters(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant([True, True, True]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_skips_idle_requesters(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([False, False, True, False]) == 2
        # After granting 2, priority moves to 3; with requests {0, 2} the
        # wrap-around picks 0.
        assert arb.grant([True, False, True, False]) == 0

    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(2)
        assert arb.grant([False, False]) is None

    def test_grant_none_preserves_priority(self):
        arb = RoundRobinArbiter(3)
        arb.grant([True, False, False])
        arb.grant([False, False, False])
        assert arb.grant([True, True, True]) == 1

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(3).grant([True])

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)


class TestFairness:
    @given(st.integers(2, 8))
    def test_all_requesters_served_within_one_round(self, n):
        arb = RoundRobinArbiter(n)
        granted = {arb.grant([True] * n) for _ in range(n)}
        assert granted == set(range(n))

    def test_no_starvation_under_contention(self):
        """A persistent requester is served within `size` grants."""
        arb = RoundRobinArbiter(5)
        waits = []
        for _ in range(50):
            for wait in range(5):
                if arb.grant([True] * 5) == 3:
                    waits.append(wait)
                    break
        assert waits and max(waits) < 5


class TestGrantMask:
    """`grant_mask` is `grant` with the lines packed into an int."""

    @given(st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=30),
        )
    ))
    def test_same_winners_and_pointer_as_grant(self, case):
        n, rounds = case
        by_lines, by_mask = RoundRobinArbiter(n), RoundRobinArbiter(n)
        for lines in rounds:
            mask = sum(1 << i for i, asked in enumerate(lines) if asked)
            assert by_mask.grant_mask(mask) == by_lines.grant(lines)
            assert by_mask.peek() == by_lines.peek()

    def test_out_of_range_lines_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(3).grant_mask(0b1000)
        with pytest.raises(ValueError):
            RoundRobinArbiter(3).grant_mask(-1)
