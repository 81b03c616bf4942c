"""Per-node source queues feeding the injection ports.

A :class:`SourceQueue` holds the packets a node has produced but not yet
pushed into the network, flit by flit, in order, and is the node's
network interface (NI): :meth:`SourceQueue.vc_for` and
:meth:`SourceQueue.take` are the one injection protocol.  The NI injects
at most one flit per cycle, into the local router's buffers when it is
powered; when it is power-gated with the stress-relaxing bypass, the
bypass switch pulls flits from here directly (Section 3.3).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.noc.flit import Flit, Packet

if TYPE_CHECKING:
    from repro.noc.vc import InputPort


class SourceQueue:
    """FIFO of pending packets at one node, exposed flit by flit."""

    def __init__(self, node: int, refuse: Callable[[Packet], bool] | None = None):
        self.node = node
        self._packets: deque[Packet] = deque()
        self._current_flits: deque[Flit] = deque()
        self._current_packet: Packet | None = None
        self.flits_popped = 0  # flits handed to the network (sanitizer ledger)
        # Input VC (at the local router) the in-flight packet's head claimed;
        # body flits must follow it.  Set and cleared by ``take``.
        self.current_vc: int | None = None
        # The network's check on a head about to leave: True when it has
        # refused (and accounted) the packet, whose destination router died
        # while it waited here.  None admits every head.
        self.refuse = refuse

    def enqueue(self, packet: Packet) -> None:
        if packet.src != self.node:
            raise ValueError(f"packet src {packet.src} does not match node {self.node}")
        self._packets.append(packet)

    def requeue_front(self, packet: Packet) -> None:
        """Put a packet at the head of the queue (end-to-end retransmission).

        A packet that is mid-injection keeps the port — its remaining
        flits live in ``_current_flits``, ahead of ``_packets`` — so the
        retry goes out right after it and before everything still queued.
        A packet :meth:`peek` has drawn counts as mid-injection even
        before its head is out.
        """
        self._packets.appendleft(packet)

    @property
    def pending_packets(self) -> int:
        return len(self._packets) + (1 if self._current_flits else 0)

    def is_empty(self) -> bool:
        return not self._packets and not self._current_flits

    def _refill(self) -> None:
        if not self._current_flits and self._packets:
            self._current_packet = self._packets.popleft()
            self._current_flits.extend(self._current_packet.make_flits())

    def peek(self) -> Flit | None:
        """Next flit to inject, without consuming it.

        Draws the next packet's flits when none are open, which puts that
        packet ahead of any later :meth:`requeue_front`: the bypass
        request line (``Router.bypass_step``) relies on that, so an
        emptiness test is not a substitute for this call.
        """
        flits = self._current_flits
        if not flits:
            if not self._packets:
                return None
            self._refill()
        return flits[0]

    def pop(self) -> Flit:
        """Consume the next flit (caller must have peeked successfully)."""
        flits = self._current_flits
        if not flits:
            self._refill()
            if not flits:
                raise IndexError(f"node {self.node}: source queue is empty")
        self.flits_popped += 1
        return flits.popleft()

    def vc_for(self, flit: Flit, port: InputPort) -> int | None:
        """The VC of injection *port* for *flit*, the one :meth:`peek`
        returned: a free VC for a head, its head's VC for a body; None for
        a head that must wait or that ``refuse`` turned away (the drop
        sweep takes that packet out of this queue)."""
        if flit.is_head:
            if self.refuse is not None and self.refuse(flit.packet):
                return None
            return port.free_vc_for_head()
        if self.current_vc is None:
            raise RuntimeError(f"node {self.node}: body flit with no open VC")
        return self.current_vc

    def take(self, port: InputPort, vci: int, cycle: int) -> Flit:
        """Consume the next flit into VC *vci* of injection *port*
        (:meth:`vc_for`'s answer): a head claims the VC and stamps the
        injection cycle, and the source lets go of the VC behind the tail."""
        flit = self.pop()
        flit.vc = vci
        if flit.is_head:
            port.claim(vci, flit.packet)
            self.current_vc = vci
            flit.packet.injection_cycle = cycle
        if flit.is_tail:
            self.current_vc = None
        return flit

    def current_packet(self) -> Packet | None:
        self._refill()
        return self._current_packet if self._current_flits else None

    def discard_packet(self, packet: Packet) -> bool:
        """Excise *packet* from this queue (fault-scenario drop sweep).

        Un-popped flits never entered the ``flits_popped`` ledger, so
        clearing them keeps the sanitizer's conservation law intact;
        flits already handed to the network are the network's to excise.
        """
        if self._current_packet is packet:
            self._current_flits.clear()
            self._current_packet = None
            self.current_vc = None
            return True
        try:
            self._packets.remove(packet)
        except ValueError:
            return False
        return True

    def drain_queued(self) -> list[Packet]:
        """Remove and return every packet that has not begun injection
        (the node's router died; they can never enter the network)."""
        drained = list(self._packets)
        self._packets.clear()
        return drained
