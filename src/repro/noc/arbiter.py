"""Round-robin arbitration.

Used by switch allocation, VC allocation, and the bypass switch (the paper
forwards bypassed flits "by a simple round robin arbiter").
"""

from __future__ import annotations

from collections.abc import Sequence


class RoundRobinArbiter:
    """Grant one of *size* requesters per invocation, rotating priority.

    >>> arb = RoundRobinArbiter(3)
    >>> arb.grant([True, True, True])
    0
    >>> arb.grant([True, True, True])
    1
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("arbiter needs at least one requester")
        self.size = size
        self._next = 0

    def grant(self, requests: Sequence[bool]) -> int | None:
        """Index of the granted requester, or None if nobody requested.

        The definition of the arbiter, one request line per list element.
        The simulator itself arbitrates through :meth:`grant_mask`; this
        form stays as the oracle the tests compare it against.
        """
        if len(requests) != self.size:
            raise ValueError(f"expected {self.size} request lines, got {len(requests)}")
        for offset in range(self.size):
            idx = (self._next + offset) % self.size
            if requests[idx]:
                self._next = (idx + 1) % self.size
                return idx
        return None

    def grant_mask(self, requests: int) -> int | None:
        """:meth:`grant` with the request lines packed into an int (bit
        ``i`` set = requester ``i`` asks): the same winner and the same
        pointer update, without a per-call list of lines."""
        if not requests:
            return None
        if requests < 0 or requests >> self.size:
            raise ValueError(f"request mask {requests:#b} exceeds {self.size} lines")
        ahead = requests >> self._next  # requesters at or past the pointer
        if ahead:
            idx = self._next + (ahead & -ahead).bit_length() - 1
        else:
            idx = (requests & -requests).bit_length() - 1
        self._next = (idx + 1) % self.size
        return idx

    def peek(self) -> int:
        """The requester that currently has top priority (for tests)."""
        return self._next
