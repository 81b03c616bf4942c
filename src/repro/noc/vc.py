"""Virtual channels and input ports.

Each input port owns ``num_vcs`` virtual channels; each VC is a FIFO of
(flit, enqueue_cycle) with the per-packet wormhole state the router pipeline
needs (computed route, allocated output VC, activity state, owner).  That
state is the paper's Buffer State Table entry (Section 3.1.2, Fig. 4): it
lives on the always-on supply, so an ACTIVE VC's route and output VC steer
body flits through the bypass while the router is gated.

``reserved`` models the paper's baseline SECDED retransmission cost: when
copies of in-flight flits are "buffered in the current router's virtual
channel until an ACK is received" (Section 3.2), the slot cannot be reused,
which is exactly a reservation on the upstream VC.
"""

from __future__ import annotations

import enum

from repro.noc.flit import Flit, Packet
from repro.noc.routing import Direction


class VcState(enum.Enum):
    IDLE = "idle"  # no worm in progress (the VC may be claimed for one)
    ROUTING = "routing"  # head buffered, route computation pending
    WAITING_VA = "waiting_va"  # route known, needs an output VC
    ACTIVE = "active"  # output VC allocated, flits may traverse


# The members, bound once (see the note in `repro.noc.power_gating`).
VC_IDLE = VcState.IDLE
VC_ROUTING = VcState.ROUTING
VC_WAITING_VA = VcState.WAITING_VA
VC_ACTIVE = VcState.ACTIVE


class VirtualChannel:
    """One VC FIFO plus its wormhole state.

    The FIFO is a plain list: it never holds more than ``depth`` entries,
    so a front pop moves a handful of pointers, and an empty list is 56
    bytes against an empty ``deque``'s 760 (a mesh builds thousands).
    """

    __slots__ = ("depth", "queue", "state", "route", "out_vc", "reserved", "owner")

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("VC depth must be at least one flit")
        self.depth = depth
        self.queue: list[tuple[Flit, int]] = []
        self.state = VC_IDLE
        self.route: Direction | None = None
        self.out_vc: int | None = None
        self.reserved = 0  # slots held by unacked retransmission copies
        # The packet this VC is promised to, from its claim (VA, bypass or
        # injection) to its release (``Router._close``): Fig. 4's owner.
        self.owner: Packet | None = None

    @property
    def occupancy(self) -> int:
        return len(self.queue) + self.reserved

    @property
    def free_slots(self) -> int:
        return self.depth - len(self.queue) - self.reserved

    def can_accept(self) -> bool:
        return len(self.queue) + self.reserved < self.depth

    def push(self, flit: Flit, cycle: int) -> None:
        if len(self.queue) + self.reserved >= self.depth:
            raise OverflowError("VC overflow: flow control must prevent this")
        self.queue.append((flit, cycle))
        if flit.is_head:
            if self.state is not VC_IDLE:
                raise RuntimeError("head flit arrived at a busy VC")
            self.state = VC_ROUTING

    def pop(self) -> Flit:
        flit, _ = self.queue.pop(0)
        return flit

    def reserve(self) -> None:
        """Hold one slot for an in-flight retransmission copy."""
        self.reserved += 1

    def release(self) -> None:
        """ACK received: the copy's slot is free again."""
        if self.reserved <= 0:
            raise RuntimeError("release without a matching reserve")
        self.reserved -= 1

    def close_packet(self) -> None:
        """Tail departed: return to IDLE for the next packet."""
        self.state = VC_IDLE
        self.route = None
        self.out_vc = None


class InputPort:
    """All VCs of one router input direction.

    A VC is claimed for one packet at a time (``VirtualChannel.owner``), so
    two packets never get allocated the same downstream VC.
    """

    __slots__ = ("direction", "vcs")

    def __init__(self, direction: int, num_vcs: int, depth: int):
        # Port id: a Direction member for the five classic ports, a plain
        # int for a cmesh extra local port.
        self.direction = direction
        self.vcs = [VirtualChannel(depth) for _ in range(num_vcs)]

    def total_occupancy(self) -> int:
        return sum(vc.occupancy for vc in self.vcs)

    def total_capacity(self) -> int:
        return sum(vc.depth for vc in self.vcs)

    def free_vc_for_head(self, allowed: "range | None" = None) -> int | None:
        """A VC able to start a new packet (IDLE, unclaimed, with space).

        *allowed* restricts the scan to a VC-class partition (dateline
        routing on torus/ring fabrics); None scans every VC.
        """
        indices = range(len(self.vcs)) if allowed is None else allowed
        for i in indices:
            vc = self.vcs[i]
            if (
                vc.state is VC_IDLE
                and vc.owner is None
                and vc.reserved == 0
                and len(vc.queue) < vc.depth
            ):
                return i
        return None

    def claim(self, index: int, packet: Packet) -> None:
        vc = self.vcs[index]
        if vc.owner is not None:
            raise RuntimeError(f"VC {index} is already claimed")
        vc.owner = packet

    def unclaim(self, index: int) -> None:
        self.vcs[index].owner = None
