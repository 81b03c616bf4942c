"""Unified Buffer State Table (Section 3.1.2, Fig. 4).

The BST replaces per-port VC state tables with one router-wide table on a
separate, never-gated supply.  Two properties matter to the architecture:

1. It records, per (input direction, VC), the output port and output VC the
   head flit claimed — so *body* flits can still be routed through the
   bypass switch after the router (and its pipeline state) is powered off.
2. It tracks MFAC buffer occupancy so credits can be distributed on channel
   buffers while the router is gated.

The second function is realized by the channel objects themselves in this
model; the BST here carries the routing/allocation state and the occupancy
bookkeeping the congestion-control block reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.routing import NUM_PORTS


@dataclass
class BstEntry:
    """Routing state for the packet currently owning (input port, VC); the
    owner itself is that input VC's ``owner``."""

    output_port: int  # a Direction member, or a cmesh extra local port id
    out_vc: int


class BufferStateTable:
    """Router-wide, always-on routing-state table."""

    def __init__(self, num_vcs: int, num_ports: int = NUM_PORTS):
        if num_vcs < 1:
            raise ValueError("need at least one VC")
        if num_ports < 2:
            raise ValueError("need at least two ports")
        self.num_vcs = num_vcs
        self.num_ports = num_ports
        self._entries: dict[tuple[int, int], BstEntry] = {}

    def record(self, in_port: int, in_vc: int, output_port: int, out_vc: int) -> None:
        """Store the head flit's allocation for its body flits to follow."""
        self._check(in_port, in_vc)
        self._entries[(int(in_port), in_vc)] = BstEntry(output_port, out_vc)

    def lookup(self, in_port: int, in_vc: int) -> BstEntry | None:
        """Allocation of the packet owning (port, VC), or None if idle."""
        # A Direction member hashes and compares as its int: no int() here.
        return self._entries.get((in_port, in_vc))

    def clear(self, in_port: int, in_vc: int) -> None:
        """Tail flit departed: the (port, VC) pair is idle again."""
        self._entries.pop((in_port, in_vc), None)

    def open_entries(self) -> int:
        """Number of in-flight packets traversing this router."""
        return len(self._entries)

    def entries(self) -> dict[tuple[int, int], BstEntry]:
        """The live (in_port, in_vc) -> entry mapping (read-only use: the
        sanitizer audits it against the VC state; do not mutate)."""
        return self._entries

    def _check(self, in_port: int, in_vc: int) -> None:
        if not 0 <= int(in_port) < self.num_ports:
            raise ValueError(f"bad port {in_port}")
        if not 0 <= in_vc < self.num_vcs:
            raise ValueError(f"bad VC {in_vc}")
