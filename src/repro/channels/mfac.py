"""Channel datapath model (Section 3.1, Figs. 2-3).

One :class:`Channel` connects an upstream router output port to a
downstream router input port.  Three physical organizations share it:

* **wire** — the baseline's repeated link: no storage, sends require a
  free downstream buffer slot.
* **channel buffers** (iDEAL / EB / CP) — the link's repeater stages can
  hold flits, so sends only require channel space; storage happens
  automatically when the downstream stalls (the congestion-signal-driven
  hold of Fig. 3(a)/(b)).
* **MFAC** — adds the re-transmission buffer and relaxed timing functions
  (Fig. 3(c)/(d)), selected at runtime by the MFAC controller.

Error handling hooks: flits are handed to the network's delivery logic
together with the channel's current function, and NACKed flits re-enter
the channel from the re-transmission copy store (MFAC) or from the
reserved upstream VC slot (baseline SECDED).
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Callable

from repro.noc.flit import Flit
from repro.noc.routing import Direction


class ChannelFunction(enum.Enum):
    """Runtime function of an MFAC (collapsing Fig. 3's four circuits).

    Fig. 3(a) transmission and (b) link storage are one datapath state —
    propagate when the congestion signal is low, hold when high — so they
    share ``NORMAL``; the distinct re-transmission and relaxed-timing
    circuits get their own states.
    """

    NORMAL = "normal"  # transmission + congestion-driven storage
    RETRANSMISSION = "retransmission"  # one link carries copies for NACK replay
    RELAXED = "relaxed"  # doubled traversal time, near-zero timing errors


# The members, bound once (see the note in `repro.noc.power_gating`).
CHANNEL_NORMAL = ChannelFunction.NORMAL
CHANNEL_RETRANSMISSION = ChannelFunction.RETRANSMISSION
CHANNEL_RELAXED = ChannelFunction.RELAXED


class InboundCounter:
    """Flits queued on every channel into one router.

    The router owns one; each of its incoming channels shares it and keeps
    it equal to the sum of their queue lengths, so "is anything headed for
    this router?" is one attribute read instead of a scan over channels.
    """

    __slots__ = ("flits",)

    def __init__(self) -> None:
        self.flits = 0


class Channel:
    """A directed inter-router channel.

    Occupancy bookkeeping (kept by :meth:`send`, :meth:`remove` and the
    front pop of :meth:`dequeue`, the only places a queue changes
    length): ``inbound.flits`` counts the flits queued toward the
    destination router, and ``busy`` holds the ``index`` of every
    channel of the fabric whose queue is non-empty.
    The network passes shared objects for both; a standalone channel
    keeps private ones.
    """

    __slots__ = (
        "src",
        "direction",
        "dst",
        "dst_port",
        "index",
        "inbound",
        "busy",
        "is_wire",
        "is_mfac",
        "stages_per_link",
        "links",
        "subnetworks",
        "link_latency",
        "function",
        "queue",
        "copies",
        "pending_acks",
        "_accepted_this_cycle",
        "_cycle_of_budget",
        "flits_sent",
        "flits_retransmitted",
        "function_switches",
        "capacity",
        "bandwidth",
        "traversal_latency",
        "traversal_pj",
        "_link_energy_pj",
        "down",
        "dead",
        "dead_reason",
    )

    def __init__(
        self,
        src: int,
        direction: Direction,
        dst: int,
        *,
        buffer_depth: int,
        links: int = 1,
        subnetworks: int = 1,
        link_latency: int = 1,
        is_mfac: bool = False,
        index: int = 0,
        inbound: InboundCounter | None = None,
        busy: set[int] | None = None,
        link_energy_pj: Callable[[int], float] | None = None,
    ):
        if buffer_depth < 0:
            raise ValueError("buffer depth cannot be negative")
        if is_mfac and links < 2:
            raise ValueError("an MFAC needs two physical links (Fig. 2)")
        self.src = src
        self.direction = direction
        self.dst = dst
        self.dst_port = direction.opposite  # input port at the far router
        self.index = index
        # Dynamic energy of one flit crossing a given number of link stages
        # (the power model's; a standalone channel charges nothing).
        self._link_energy_pj = link_energy_pj
        self.inbound = inbound if inbound is not None else InboundCounter()
        self.busy = busy if busy is not None else set()
        self.is_wire = buffer_depth == 0
        self.is_mfac = is_mfac
        self.links = max(1, links)
        self.subnetworks = max(1, subnetworks)
        self.stages_per_link = (
            buffer_depth // self.links if buffer_depth else 0
        )
        self.link_latency = link_latency
        self.function = CHANNEL_NORMAL
        # queue entries: [flit, ready_cycle]
        self.queue: deque[list] = deque()
        self.copies: deque[Flit] = deque()  # retransmission copies (MFAC upper link)
        # Baseline SECDED keeps copies in the *upstream* VC until ACK
        # (Section 3.2); this maps each in-flight flit to the reserved VC
        # and the router that owns it.
        self.pending_acks: dict[Flit, tuple] = {}
        self._accepted_this_cycle = 0
        self._cycle_of_budget = -1
        self.flits_sent = 0
        self.flits_retransmitted = 0
        self.function_switches = 0  # runtime reconfigurations of this MFAC
        # Fault-scenario state.  ``down`` refuses new sends (intermittent
        # outage: queued flits are *held*, not lost); ``dead`` additionally
        # marks the outage permanent — routing treats the channel as gone
        # and packets committed to it are dropped with ``dead_reason``.
        self.down = False
        self.dead = False
        self.dead_reason: str | None = None
        self._refresh_geometry()

    # --- fault-scenario state transitions ------------------------------------

    def set_down(self, down: bool) -> None:
        """Duty-cycled outage: hold traffic while down (dead stays down)."""
        self.down = down or self.dead

    def kill(self, reason: str) -> None:
        """Permanent failure: the channel never carries traffic again."""
        self.dead = True
        self.down = True
        self.dead_reason = reason

    # --- capacity / bandwidth ------------------------------------------------

    def _refresh_geometry(self) -> None:
        """Recompute the function-dependent geometry (cached: these are
        read on every send/delivery attempt, i.e. the hot path).

        * capacity — flits the channel can hold.  Wires hold in-flight
          pipeline slots only (wire + ECC encode/decode stages are all
          pipelined); storage there is enforced by the sender's credit
          check against the downstream buffer.  Retransmission mode gives
          one physical link's stages to copies.
        * bandwidth — flits accepted per cycle (one link's worth in the
          retransmission/relaxed functions).
        * traversal_latency — cycles from send to earliest delivery
          (doubled under relaxed timing).
        * traversal_pj — link energy of one traversal: the wire is as long
          whether or not its repeater stages can hold flits, and relaxed
          timing double-drives the stages.
        """
        function = self.function
        if self.is_wire:
            self.capacity = (self.link_latency + 4) * self.subnetworks
        elif function is CHANNEL_RETRANSMISSION:
            self.capacity = self.stages_per_link
        else:
            self.capacity = self.stages_per_link * self.links * self.subnetworks
        if function is CHANNEL_RETRANSMISSION or function is CHANNEL_RELAXED:
            self.bandwidth = self.subnetworks
        else:
            self.bandwidth = (
                self.links * self.subnetworks if not self.is_wire else self.subnetworks
            )
        self.traversal_latency = (
            2 * self.link_latency if function is CHANNEL_RELAXED else self.link_latency
        )
        self.traversal_pj = (
            self._link_energy_pj(self.traversal_latency)
            if self._link_energy_pj is not None
            else 0.0
        )

    @property
    def occupancy(self) -> int:
        return len(self.queue)

    @property
    def congested(self) -> bool:
        """The 1-bit congestion signal the control block forwards."""
        return len(self.queue) >= self.capacity

    def set_function(self, function: ChannelFunction) -> None:
        """Reconfigure the MFAC (no-op states for non-MFAC channels are
        rejected — only MFACs have the extra circuits of Fig. 3(c)/(d))."""
        if function is not CHANNEL_NORMAL and not self.is_mfac:
            raise ValueError(f"{function} requires MFAC hardware")
        if function is not self.function:
            # Copies from a previous retransmission phase age out; any
            # still-unacked flit has already been delivered or replayed.
            if function is not CHANNEL_RETRANSMISSION:
                self.copies.clear()
            self.function = function
            self.function_switches += 1
            self._refresh_geometry()

    # --- sending -------------------------------------------------------------

    def can_accept(self, cycle: int) -> bool:
        """Whether the upstream router may push one flit this cycle."""
        if self.down:
            return False
        if (
            cycle == self._cycle_of_budget
            and self._accepted_this_cycle >= self.bandwidth
        ):
            return False  # this cycle's bandwidth is spent
        if len(self.queue) >= self.capacity:
            return False
        if self.function is CHANNEL_RETRANSMISSION:
            if len(self.copies) >= self.stages_per_link:
                return False  # copy link full until ACKs drain
        return True

    def send(
        self, flit: Flit, cycle: int, keep_copy: bool = False, extra_latency: int = 0
    ) -> None:
        """Push *flit* into the channel (upstream switch traversal done).

        *extra_latency* models the upstream encoder's pipeline cost
        (SECDED +1 cycle, DECTED +2 — the per-hop ECC overhead the paper's
        CRC-only mode eliminates).
        """
        queue = self.queue
        queued = len(queue)
        same_cycle = cycle == self._cycle_of_budget
        retransmission = self.function is CHANNEL_RETRANSMISSION
        if (  # ``not self.can_accept(cycle)``, in line
            self.down
            or (same_cycle and self._accepted_this_cycle >= self.bandwidth)
            or queued >= self.capacity
            or (retransmission and len(self.copies) >= self.stages_per_link)
        ):
            raise OverflowError("channel overflow: caller must check can_accept")
        if same_cycle:
            self._accepted_this_cycle += 1
        else:
            self._cycle_of_budget = cycle
            self._accepted_this_cycle = 1
        # Entry layout: [flit, ready_cycle, cached error sample (None until
        # the delivery logic draws the traversal's bit-error count)].
        if not queued:
            self.busy.add(self.index)
        queue.append([flit, cycle + self.traversal_latency + extra_latency, None])
        self.inbound.flits += 1
        self.flits_sent += 1
        if keep_copy:
            if not retransmission:
                raise RuntimeError("copies are only kept in retransmission mode")
            self.copies.append(flit)

    # --- delivery ------------------------------------------------------------

    def deliverable(self, cycle: int) -> list[list]:
        """Queue entries ready to leave the channel this cycle, in order.

        All ready entries are exposed so delivery can skip blocked flits
        of other VCs — the unified BST's dynamic buffer allocation
        (Section 3.1.2).  The look-ahead is unbounded: a finite window can
        be saturated by blocked VCs and starve a VC that has buffer space
        — a wormhole deadlock that per-VC buffering (which this
        shared-FIFO channel model abstracts) would never exhibit.  Per-VC
        order is preserved because same-VC flits stay FIFO in the queue.
        Each entry is ``[flit, ready_cycle, cached_error_sample]``.

        The network's delivery loop walks the queue itself, by this rule;
        this snapshot form is what the channel tests read.
        """
        ready: list[list] = []
        for entry in self.queue:
            if entry[1] > cycle:
                break  # later entries are younger and cannot be ready
            ready.append(entry)
        return ready

    def remove(self, entry: list) -> None:
        """Take a delivered entry out of the queue."""
        queue = self.queue
        if queue and queue[0] is entry:
            queue.popleft()  # the common case: flits leave in order
        else:
            try:
                queue.remove(entry)
            except ValueError:
                raise ValueError("entry is not in this channel") from None
        self.inbound.flits -= 1
        if not queue:
            self.busy.discard(self.index)

    def acknowledge(self, flit: Flit) -> None:
        """ACK received downstream: drop the retransmission copy.

        A no-op when no copy is held: outside retransmission mode none is
        ever kept, and a function switch ages out the ones that were.
        """
        copies = self.copies
        if copies and flit in copies:
            copies.remove(flit)

    def dequeue(self, entry: list) -> None:
        """The flit of *entry* has left the channel for good (accepted
        downstream, forwarded by a bypass, or excised as a drop): take it
        out, ACK it, and free the upstream VC slot a wire channel's sender
        reserved for its copy (baseline SECDED, Section 3.2).

        The one place the hop's ACK protocol is written; a NACK goes
        through :meth:`nack_resend` and keeps the reservation.
        """
        flit: Flit = entry[0]
        queue = self.queue
        if queue and queue[0] is entry:  # flits mostly leave in order
            queue.popleft()
            self.inbound.flits -= 1
            if not queue:
                self.busy.discard(self.index)
        else:
            self.remove(entry)
        if self.copies:
            self.acknowledge(flit)
        if self.pending_acks:
            pending = self.pending_acks.pop(flit, None)
            if pending is not None:
                upstream_vc, owner = pending
                upstream_vc.release()
                owner._reserved_count -= 1

    def nack_resend(self, entry: list, cycle: int) -> None:
        """NACK: replay the flit from its copy (or upstream reservation).

        The flit re-enters the channel at the front so per-VC order holds;
        the fresh traversal gets a fresh error sample.
        """
        self.remove(entry)
        queue = self.queue
        if not queue:
            self.busy.add(self.index)
        queue.appendleft([entry[0], cycle + self.traversal_latency, None])
        self.inbound.flits += 1
        self.flits_retransmitted += 1

    def stored_flits(self, cycle: int) -> int:
        """Flits currently *stored* (past their ready time): they are being
        held by the congestion signal, which costs hold energy per cycle."""
        return sum(1 for entry in self.queue if entry[1] <= cycle)

    def __repr__(self) -> str:
        return (
            f"Channel(r{self.src}->{self.direction.name}->r{self.dst}, "
            f"{self.function.value}, {len(self.queue)}/{self.capacity})"
        )
