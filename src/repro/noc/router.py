"""Wormhole router with adaptive ECC, power gating, and bypass.

One :class:`Router` models the paper's enhanced microarchitecture
(Fig. 1): a 4-stage (or, for EB, 3-stage) input-queued pipeline with
virtual channels and credit backpressure (each input VC's record is its
unified Buffer State Table entry), the adaptive ECC hardware (its
activation level is the operation mode's scheme), the power-gating
controller, and — when gated with the stress-relaxing feature — the bypass
switch that forwards flits from upstream MFACs to downstream MFACs without
touching buffers or crossbar.

The pipeline is modeled with per-flit eligibility delays rather than
explicit stage registers: a head flit becomes switch-eligible
``pipeline_stages - 2`` cycles after buffering (BW/RC + VA), a body flit
after one cycle (BW), and switch traversal + link traversal follow — the
same per-hop cycle counts as the stage-register formulation.
"""

from __future__ import annotations

from collections.abc import Callable, Container
from typing import TYPE_CHECKING

from repro.channels.mfac import (
    CHANNEL_NORMAL,
    CHANNEL_RELAXED,
    CHANNEL_RETRANSMISSION,
    Channel,
    InboundCounter,
)
from repro.config import OPERATION_MODES, EccScheme, PowerConfig, TechniqueConfig
from repro.noc.adaptive_routing import select_output
from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.flit import Flit
from repro.noc.power_gating import (
    POWER_DRAINING,
    POWER_GATED,
    POWER_ON,
    PowerGatingController,
)
from repro.noc.statistics import RouterEpochCounters
from repro.noc.topology import Topology
from repro.noc.vc import (
    VC_ACTIVE,
    VC_IDLE,
    VC_ROUTING,
    VC_WAITING_VA,
    InputPort,
    VirtualChannel,
)
from repro.power.model import PowerModel

if TYPE_CHECKING:
    from repro.telemetry import Telemetry


class Router:
    """One router of any registered fabric."""

    def __init__(
        self,
        rid: int,
        technique: TechniqueConfig,
        power_cfg: PowerConfig,
        topology: Topology,
        counters: RouterEpochCounters,
        charge: Callable[[float], None],
        on_eject: Callable[[Flit, int], None],
        on_drop: Callable[[object, str], None],
    ):
        noc = technique.noc
        self.id = rid
        self.technique = technique
        self.noc = noc
        self.topology = topology
        self.num_ports = topology.num_ports
        self.counters = counters
        self.charge = charge  # dynamic-energy sink (pJ)
        self.on_eject = on_eject
        self.on_drop = on_drop  # resolves a packet as dropped, with its reason

        ports = topology.ports
        if tuple(int(p) for p in ports) != tuple(range(self.num_ports)):
            # Arbiter request lines and the VC-slot masks index by port id.
            raise ValueError("port ids must count from 0 in port order")
        self._ejection_ports = topology.ejection_ports(rid)
        depth = max(1, noc.router_buffer_depth)  # EB keeps a 1-flit latch
        self.input_ports: dict[int, InputPort] = {
            p: InputPort(p, noc.num_vcs, depth) for p in ports
        }
        self.outgoing: dict[int, Channel] = {}
        self.incoming: dict[int, Channel] = {}
        # Flits queued on the incoming channels, kept by the channels
        # themselves (the network hands this counter to each of them).
        self.inbound = InboundCounter()
        self.downstream_ports: dict[int, InputPort] = {}
        self.downstream_routers: dict[int, "Router"] = {}

        self.power_model = PowerModel(technique, power_cfg)
        self.gating = PowerGatingController(technique)
        # The outgoing MFACs, whose function follows the mode; set by
        # ``finish_wiring`` (empty on a technique without MFACs).
        self.mfacs: tuple[Channel, ...] = ()

        self.mode = technique.rl.initial_mode  # applied by finish_wiring
        self.relaxed_timing = False
        self._set_scheme(OPERATION_MODES[self.mode].scheme)

        self._head_delay = 2 if noc.pipeline_stages >= 4 else 1
        self._body_delay = 1
        self._grants_per_output = noc.subnetworks
        self._port_arbiters = {p: RoundRobinArbiter(noc.num_vcs) for p in ports}
        self._output_arbiters = {p: RoundRobinArbiter(self.num_ports) for p in ports}
        self._va_arbiters = {
            p: RoundRobinArbiter(self.num_ports * noc.num_vcs) for p in ports
        }
        self._bypass_arbiter = RoundRobinArbiter(self.num_ports)
        # The fabric's failure set, the network's own (it fills them on a
        # kill): routing keeps to live outputs, and a head with none is
        # dropped, not wedged.
        self.dead_routers: Container[int] = ()
        self.dead_links: Container[tuple[int, int]] = ()
        self._flit_count = 0  # flits in this router's input buffers
        # Which input VCs hold flits, as a bit per slot of ``_vc_slots``
        # (port order, then VC index — the order the pipeline scans in).
        # Maintained wherever ``_flit_count`` is.  Port ids count from 0
        # in port order on every fabric, so slot ``port * num_vcs + vc`` is
        # also that VC's request line at the VA arbiters.
        self._vc_slots: list[tuple[InputPort, int, VirtualChannel]] = [
            (port, vci, vc)
            for port in self.input_ports.values()
            for vci, vc in enumerate(port.vcs)
        ]
        self._slot_bit: dict[int, int] = {
            p: 1 << (i * noc.num_vcs) for i, p in enumerate(self.input_ports)
        }
        self._occupied_vcs = 0
        # Which input VCs hold an open worm (ACTIVE: route and output VC
        # allocated), a bit per slot like ``_occupied_vcs``.  Set where a
        # VC turns ACTIVE (``_open``), cleared only in ``_close``.
        self._open_vcs = 0
        # True when two incoming channels read congested even while empty
        # (zero-capacity channels): the bypass watchdog then fires on an
        # idle router, so such a router is never skipped.
        self.congested_when_empty = False
        # ``incoming`` as (port, channel) pairs, fixed by ``finish_wiring``:
        # what one visit of the gated router walks.
        self._bypass_inputs: tuple[tuple[int, Channel], ...] = ()
        # Head-routing memos: destination -> the live candidate outputs
        # (``Topology.live_candidates``; a kill clears it, through
        # ``Network.fail_router`` / ``fail_link``), and (route, VC class) ->
        # (next class, VCs allowed), never invalidated.
        self._route_memo: dict[int, tuple[int, ...]] = {}
        self._vc_class_memo: dict[tuple[int, int], tuple[int, range]] = {}
        self._reserved_count = 0  # slots held by unacked wire-channel copies
        # Set by the network: samples bit errors for one traversal of an
        # incoming channel (used on bypassed hops, where no decoder runs).
        self.sample_link_errors: Callable[[Channel], int] | None = None
        # Set by the network when a telemetry hub is attached; stays None
        # otherwise so instrumented paths cost one check.
        self.telemetry: "Telemetry | None" = None

    def finish_wiring(self) -> None:
        """Called by the network once channels and neighbors are attached."""
        self.mfacs = tuple(c for c in self.outgoing.values() if c.is_mfac)
        self.congested_when_empty = (
            sum(1 for c in self.incoming.values() if c.capacity == 0) >= 2
        )
        self._bypass_inputs = tuple(self.incoming.items())
        self.apply_mode(self.mode, cycle=0)

    # --- state queries --------------------------------------------------------

    @property
    def powered(self) -> bool:
        return self.gating.powered

    def is_empty(self) -> bool:
        """No flits buffered and no retransmission reservations pending."""
        return self._flit_count == 0 and self._reserved_count == 0

    def is_idle(self) -> bool:
        """Idle for gating purposes: nothing buffered here or inbound, and
        no worm open through here."""
        return not (self._flit_count or self.inbound.flits or self._open_vcs)

    # --- operation modes --------------------------------------------------------

    def apply_mode(self, mode: int, cycle: int) -> None:
        """Switch to operation *mode*, a row of Section 4's table
        (`repro.config.OPERATION_MODES`): the ECC hardware, relaxed timing,
        the function of every outgoing MFAC, and gate or power on."""
        if not 0 <= mode < len(OPERATION_MODES):
            raise ValueError(f"unknown operation mode {mode}")
        record = OPERATION_MODES[mode]
        prev = self.mode
        self.mode = mode
        self.relaxed_timing = record.relaxed
        if record.scheme is not self.scheme:
            self._set_scheme(record.scheme)
        if record.relaxed:
            function = CHANNEL_RELAXED
        elif self.per_hop:
            function = CHANNEL_RETRANSMISSION
        else:
            function = CHANNEL_NORMAL
        for channel in self.mfacs:
            channel.set_function(function)
        if record.gated:
            self.gating.request_gate(cycle, self.is_empty())
        else:
            self.gating.request_power_on(cycle, self.is_idle())
        if self.telemetry is not None and mode != prev:
            self.telemetry.record(
                "mode",
                cycle,
                router=self.id,
                mode=mode,
                prev=prev,
                scheme=self.scheme.value,
                gating=self.gating.state.value,
            )

    def _set_scheme(self, scheme: EccScheme) -> None:
        """Activate *scheme* on the ECC hardware (synchronized with the
        upstream encoder by the mode-exchange protocol of Section 4).  What
        a flit hop reads of it is worked out here, once per scheme change:
        whether errors are handled hop by hop, the codec's pipeline cycles,
        and the energy of a hop through the crossbar or the bypass."""
        self.scheme = scheme
        self.per_hop = scheme.per_hop
        self.hop_latency = scheme.hop_latency
        self.hop_pj = self.power_model.hop_energy_pj(scheme, via_bypass=False)
        self.bypass_pj = self.power_model.hop_energy_pj(scheme, via_bypass=True)

    # --- flit delivery (called by the network) -----------------------------------

    def deliver(self, flit: Flit, direction: int, cycle: int) -> None:
        """Buffer an arriving flit into its input VC."""
        port = self.input_ports[direction]
        vc = port.vcs[flit.vc]
        if not flit.is_head and vc.state is VC_IDLE:
            # A body flit follows its head's VC record, which stays open
            # across gating (a bypassed head opens it too): none, no head.
            raise RuntimeError(
                f"router {self.id}: orphan body flit on "
                f"{self.topology.port_name(direction)}/{flit.vc}"
            )
        vc.push(flit, cycle)
        self._flit_count += 1
        self._occupied_vcs |= self._slot_bit[direction] << flit.vc
        self.counters.in_flits[direction] += 1
        if flit.is_head:
            flit.packet.path.append(self.id)

    # --- pipeline ----------------------------------------------------------------

    def step(self, cycle: int, lap: Callable[[str], None] | None) -> None:
        """One cycle of the powered router pipeline (RC, VA, SA/ST).

        One scan over the occupied VCs performs route computation and
        gathers VA requests and SA candidates; allocation then proceeds
        in pipeline order (RC results feed VA; VA grants may win SA the
        same cycle they become eligible, per the stage delays).  *lap* is
        the network's step-profiler probe (None on un-sampled steps).
        """
        if self._flit_count == 0:
            return
        state = self.gating.state
        if state is not POWER_ON and state is not POWER_DRAINING:
            return  # not ``gating.powered``
        va_requests, active = self._scan_pipeline(cycle)
        if lap is not None:
            lap("router.rc_scan")
        self._vc_allocate(va_requests, active)
        if lap is not None:
            lap("router.vc_alloc")
        self._switch_allocate(cycle, active)
        if lap is not None:
            lap("router.switch")

    def _scan_pipeline(
        self, cycle: int
    ) -> tuple[dict[int, int], list[tuple[InputPort, int, VirtualChannel]]]:
        """One scan over the occupied VCs: RC plus VA/SA candidate gather.

        Returns the VA requests as a mask of ``_vc_slots`` indices per
        requested output, and the ACTIVE slots in scan order.
        """
        head_delay = self._head_delay
        va_requests: dict[int, int] = {}
        active: list[tuple[InputPort, int, VirtualChannel]] = []
        slots = self._vc_slots
        occupied = self._occupied_vcs
        while occupied:
            lowest = occupied & -occupied
            occupied ^= lowest
            slot = slots[lowest.bit_length() - 1]
            vc = slot[2]
            state = vc.state
            if state is VC_ACTIVE:
                active.append(slot)
                continue
            if state is VC_ROUTING:
                flit, enq = vc.queue[0]
                if cycle >= enq + 1:
                    route = self.compute_route(flit.packet.dst)
                    if route is None:
                        self._drop_unroutable(flit.packet)
                        continue  # the next drop sweep excises it
                    vc.route = route
                    vc.state = state = VC_WAITING_VA
            if state is VC_WAITING_VA:
                if cycle >= vc.queue[0][1] + head_delay:
                    route = vc.route
                    va_requests[route] = va_requests.get(route, 0) | lowest
        return va_requests, active

    def _vc_allocate(self, requests: dict[int, int], active: list) -> None:
        """Grant one requesting head per output (round-robin over the
        slot-indexed request lines) a downstream VC; winners join *active*."""
        for route, lines in requests.items():
            index = self._va_arbiters[route].grant_mask(lines)
            slot = self._vc_slots[index]
            vc = slot[2]
            if route in self._ejection_ports:
                out_vc = 0
            else:
                out_vc = self._claim_downstream_vc(route, vc.queue[0][0].packet)
                if out_vc is None:
                    continue  # no downstream VC free; retry next cycle
            self._open(1 << index, vc, route, out_vc)
            active.append(slot)

    def _switch_allocate(self, cycle: int, active: list) -> None:
        """Separable switch allocation over request masks.

        Each input port nominates one of its ready VCs (a bit per VC),
        each output then grants ``subnetworks`` of the ports nominating it
        (a bit per port); both stages are round-robin.  Ports nominate in
        the order their first ACTIVE VC appears in *active* and outputs
        grant in the order they were first nominated: that fixes the
        order of ejections and energy charges.
        """
        if not active:
            return
        head_delay = self._head_delay
        body_delay = self._body_delay
        ejection = self._ejection_ports
        outgoing = self.outgoing
        ready: dict[int, int] = {}  # input port -> mask of its ready VCs
        for port, vci, vc in active:
            direction = port.direction
            lines = ready.setdefault(direction, 0)
            queue = vc.queue
            if not queue:
                continue
            flit, enq = queue[0]
            if cycle < enq + (head_delay if flit.is_head else body_delay):
                continue
            route = vc.route
            if route not in ejection:
                channel = outgoing.get(route)
                if (
                    channel is None
                    or not channel.can_accept(cycle)
                    or (channel.is_wire and not self._wire_has_slot(channel, route, vc))
                ):
                    continue
            ready[direction] = lines | (1 << vci)

        slots = self._vc_slots
        num_vcs = self.noc.num_vcs
        nominee: dict[int, tuple] = {}  # input port -> the slot it nominated
        requests: dict[int, int] = {}  # output -> mask of nominating ports
        for direction, lines in ready.items():
            if lines:
                vci = self._port_arbiters[direction].grant_mask(lines)
                nominee[direction] = slot = slots[direction * num_vcs + vci]
                route = slot[2].route
                requests[route] = requests.get(route, 0) | (1 << direction)
        for route, lines in requests.items():
            arbiter = self._output_arbiters[route]
            for _ in range(self._grants_per_output):
                winner = arbiter.grant_mask(lines)
                if winner is None:
                    break
                lines &= ~(1 << winner)
                self._switch_traverse(nominee[winner], route, cycle)

    def _wire_has_slot(self, channel: Channel, route: int, vc: VirtualChannel) -> bool:
        """A wire cannot store: require a downstream slot beyond the
        flits already in flight toward the same VC."""
        out_vc = vc.out_vc
        down_vc = self.downstream_ports[route].vcs[out_vc]
        free = down_vc.depth - len(down_vc.queue) - down_vc.reserved
        for entry in channel.queue:
            if entry[0].vc == out_vc:
                free -= 1
        return free > 0

    def _switch_traverse(
        self, slot: tuple[InputPort, int, VirtualChannel], route: int, cycle: int
    ) -> None:
        """Move the front flit of input VC *slot* through the crossbar and
        out on *route*."""
        port, vci, vc = slot
        flit = vc.queue.pop(0)[0]
        self._flit_count -= 1
        if not vc.queue:
            self._occupied_vcs &= ~(self._slot_bit[port.direction] << vci)
        self.charge(self.hop_pj)
        self.counters.out_flits[route] += 1

        is_tail = flit.is_tail
        if route in self._ejection_ports:
            if is_tail:
                self._close(port, vci)
            self.on_eject(flit, cycle)
            return

        channel = self.outgoing[route]
        flit.vc = vc.out_vc
        flit.hops += 1
        channel.send(
            flit,
            cycle,
            channel.function is CHANNEL_RETRANSMISSION,  # keep a copy
            self.hop_latency,
        )
        # Lookahead wakeup: power-gating designs signal the downstream
        # router as the flit leaves the switch, overlapping the wakeup
        # latency with the link traversal (no-op unless gated+bypassless).
        downstream = self.downstream_routers.get(route)
        if downstream is not None and downstream.gating.state is POWER_GATED:
            downstream.gating.request_wakeup(cycle)
        if channel.is_wire and self.per_hop:
            # Baseline SECDED: the copy occupies this VC until the ACK.
            vc.reserve()
            self._reserved_count += 1
            channel.pending_acks[flit] = (vc, self)
        if is_tail:
            self._close(port, vci)

    def drop_owned(self, doomed: dict) -> int:
        """Release every input VC whose owner is in *doomed* (keyed by
        ``id(packet)``) with the flits it buffers, all of them the owner's;
        returns how many flits went."""
        removed = 0
        for bit, (port, vci, vc) in enumerate(self._vc_slots):
            if vc.owner is not None and id(vc.owner) in doomed:
                removed += len(vc.queue)
                vc.queue = []
                self._occupied_vcs &= ~(1 << bit)
                self._close(port, vci)
        self._flit_count -= removed
        return removed

    def _open(self, bit: int, vc: VirtualChannel, route: int, out_vc: int) -> None:
        """Open the worm on input VC *vc* (slot mask *bit*): the head won
        *out_vc* on *route*, by VA or through the bypass.  The record is
        the paper's BST entry (Fig. 4): it outlives gating, so body flits
        follow it whether the router is powered or bypassed."""
        vc.state = VC_ACTIVE
        vc.route = route
        vc.out_vc = out_vc
        self._open_vcs |= bit

    def _close(self, port: InputPort, vci: int) -> None:
        """Release input VC *vci* of *port*: behind the owner's tail
        (switched or bypassed), or when the network's drop sweep excises
        the owner."""
        port.vcs[vci].close_packet()
        self._open_vcs &= ~(self._slot_bit[port.direction] << vci)
        port.unclaim(vci)

    # --- stress-relaxing bypass (Section 3.3) --------------------------------------

    def bypass_overloaded(self) -> bool:
        """Congestion watchdog: the single-flit bypass cannot keep up.

        Power-gating bypass designs (EZ-pass and kin) wake the router when
        incoming traffic exceeds what the bypass latch can forward; we wake
        when at least two incoming MFACs are full.

        The definition of the watchdog; :meth:`bypass_step` reaches the
        same verdict in the walk that raises its request lines.
        """
        congested = 0
        for channel in self.incoming.values():
            if len(channel.queue) >= channel.capacity:  # Channel.congested
                congested += 1
        return congested >= 2

    def bypass_step(self, cycle: int, local_sources) -> bool | None:
        """One visit of the gated router: the congestion watchdog, then
        one flit through the bypass switch.

        *local_sources* is a list of ``(injection port, SourceQueue)``
        pairs for the nodes attached to this router, so sporadic local
        traffic keeps flowing without a wakeup.  Returns None when the
        watchdog fires (:meth:`bypass_overloaded`; nothing is arbitrated
        and no source is touched), else True when a flit moved.
        """
        if self.gating.state is not POWER_GATED or not self.gating.bypass:
            return False
        # One walk over the incoming channels counts the congested ones
        # and raises the request lines, a bit per port: a channel asks
        # when its oldest flit is due (entries age in order, so that is
        # the whole test), a local source when it has a flit to inject.
        requests = 0
        congested = 0
        for port, channel in self._bypass_inputs:
            queue = channel.queue
            if queue:
                if len(queue) >= channel.capacity:
                    congested += 1
                # A channel that is down holds its flits (scenario outage).
                if queue[0][1] <= cycle and not channel.down:
                    requests |= 1 << port
            elif not channel.capacity:
                congested += 1  # zero capacity: congested while empty
        if congested >= 2:
            return None
        for port, source in local_sources:
            # peek(), not an emptiness test: it draws the next packet's
            # flits, which fixes the packet's place ahead of a later
            # end-to-end retry (SourceQueue.requeue_front).
            if source.peek() is not None:
                requests |= 1 << port

        # Try inputs in round-robin order until one flit actually moves.
        arbiter = self._bypass_arbiter
        incoming = self.incoming
        while requests:
            winner = arbiter.grant_mask(requests)
            requests &= ~(1 << winner)
            if winner in incoming:
                if self._bypass_forward(winner, incoming[winner], cycle):
                    return True
            else:
                for port, source in local_sources:
                    if port == winner:
                        if self._bypass_inject(cycle, source, port):
                            return True
                        break
        return False

    def compute_route(self, dst: int) -> int | None:
        """Route computation toward destination *node* ``dst`` over the
        live outputs: the one the fabric offers (X-Y / dimension-ordered /
        loop-minimal per fabric), or congestion-aware turn-model selection
        among several.  None when no output toward *dst* is live."""
        candidates = self._route_memo.get(dst)
        if candidates is None:
            candidates = self._route_memo[dst] = self.topology.live_candidates(
                self.id, dst, self.dead_routers, self.dead_links
            )
        if len(candidates) > 1:
            return select_output(
                candidates,
                free_slots=lambda d: sum(
                    vc.free_slots for vc in self.downstream_ports[d].vcs
                ),
            )
        return candidates[0] if candidates else None

    def _drop_unroutable(self, packet) -> None:
        """Drop *packet*, whose head has no live output, for the failure
        that cut its route's first candidate."""
        first = self.topology.route_candidates(self.id, packet.dst)[0]
        self.on_drop(packet, self.outgoing[first].dead_reason)

    def _bypass_route_for(self, vc: VirtualChannel, flit: Flit, cycle: int):
        """(route, out_vc) for a flit bypassed into input VC *vc*, from a
        channel or a local source, or None.  A head with no live output is
        dropped (``_drop_unroutable``); any other claims its downstream VC
        only once the channel there can take it.  A body follows the VC's
        open worm."""
        if flit.is_head:
            route = self.compute_route(flit.packet.dst)
            if route is None:
                self._drop_unroutable(flit.packet)
                return None
            if route in self._ejection_ports:
                return route, 0
            if not self.outgoing[route].can_accept(cycle):
                return None
            out_vc = self._claim_downstream_vc(route, flit.packet)
            if out_vc is None:
                return None
            return route, out_vc
        if vc.state is not VC_ACTIVE:
            raise RuntimeError(f"router {self.id}: bypassed body flit without an open VC")
        route = vc.route
        if route not in self._ejection_ports and not self.outgoing[route].can_accept(cycle):
            return None
        return route, vc.out_vc

    def _claim_downstream_vc(self, route: int, packet) -> int | None:
        """Claim a free VC of the input port *route* leads to for the head
        of *packet*; None when none is free (the caller retries)."""
        down_port = self.downstream_ports.get(route)
        if down_port is None:
            raise RuntimeError(f"router {self.id}: route {route} off-fabric")
        # The fabric's VC-class discipline (dateline halves on torus/ring):
        # the head may only claim a downstream VC its next class allows.
        key = (route, packet.vc_class)
        memo = self._vc_class_memo.get(key)
        if memo is None:
            cls = self.topology.next_vc_class(self.id, route, packet.vc_class)
            memo = self._vc_class_memo[key] = (
                cls,
                self.topology.allowed_vcs(cls, self.noc.num_vcs),
            )
        cls, allowed = memo
        out_vc = down_port.free_vc_for_head(allowed)
        if out_vc is None:
            return None
        packet.vc_class = cls
        down_port.claim(out_vc, packet)
        return out_vc

    def _bypass_forward(self, in_dir: int, channel: Channel, cycle: int) -> bool:
        """Move the oldest due flit of *channel* that is not blocked."""
        vcs = self.input_ports[in_dir].vcs
        blocked_vcs = 0  # a bit per VC
        for entry in channel.queue:
            if entry[1] > cycle:
                break  # later entries are younger and cannot be due
            flit: Flit = entry[0]
            in_vc = flit.vc
            if blocked_vcs >> in_vc & 1:
                continue  # an older same-VC flit is blocked; keep order
            routed = self._bypass_route_for(vcs[in_vc], flit, cycle)
            if routed is None:
                blocked_vcs |= 1 << in_vc
                continue
            # The queue changes under the iterator here; the walk ends
            # below without advancing it.
            channel.dequeue(entry)
            # The gated router's decoder is off: link errors accumulate on
            # the flit for the end-to-end CRC to catch at the destination.
            if entry[2] is None and self.sample_link_errors is not None:
                entry[2] = self.sample_link_errors(channel)
            flit.bit_errors += entry[2] or 0
            self.counters.in_flits[in_dir] += 1
            self._bypass_emit(flit, in_dir, in_vc, routed, cycle)
            return True
        return False

    def _bypass_inject(self, cycle: int, source, port: int) -> bool:
        """Move the next flit of local *source* through the bypass switch:
        the NI's protocol (``SourceQueue.vc_for`` / ``take``) around the
        route-or-drop step every bypassed flit takes."""
        in_port = self.input_ports[port]
        flit = source.peek()  # not None: its request line was raised
        in_vc = source.vc_for(flit, in_port)
        if in_vc is None:
            return False
        routed = self._bypass_route_for(in_port.vcs[in_vc], flit, cycle)
        if routed is None:
            return False
        source.take(in_port, in_vc, cycle)
        self._bypass_emit(flit, port, in_vc, routed, cycle)
        return True

    def _bypass_emit(
        self, flit: Flit, in_port: int, in_vc: int, routed: tuple[int, int], cycle: int
    ) -> None:
        """Drive *flit* out of the bypass switch on *routed* (route,
        out_vc): a head opens the worm on its input VC, the flit is ejected
        or sent, and a tail closes the worm behind it."""
        route, out_vc = routed
        port = self.input_ports[in_port]
        if flit.is_head:
            self._open(self._slot_bit[in_port] << in_vc, port.vcs[in_vc], route, out_vc)
            flit.packet.path.append(self.id)
        self.charge(self.bypass_pj)
        self.counters.out_flits[route] += 1
        if route in self._ejection_ports:
            self.on_eject(flit, cycle)
        else:
            flit.vc = out_vc
            flit.hops += 1
            channel = self.outgoing[route]
            channel.send(
                flit, cycle, keep_copy=channel.function is CHANNEL_RETRANSMISSION
            )
        if flit.is_tail:
            self._close(port, in_vc)

    def __repr__(self) -> str:
        return (
            f"Router({self.id}, mode={self.mode}, {self.gating.state.value}, "
            f"flits={self._flit_count})"
        )
