"""NoCSan runtime half: opt-in invariant checks over a live ``Network``.

Enable with ``REPRO_SANITIZE=1`` (or ``--sanitize`` on the CLI); the
network then calls :meth:`NocSanitizer.observe` every ``interval`` cycles.
All checks are strictly read-only — a sanitized run produces bit-identical
metrics to an unsanitized one — and cheap enough that a sanitized smoke
run stays well under 2x wall clock.

Invariants (catalogued with rationale in ``docs/analysis.md``):

* **flit conservation** — every flit popped from a source queue is either
  buffered in a router, in flight on a channel, or ejected; per-router
  ``_flit_count`` must equal the actual buffered total.
* **occupancy counters** — the O(1) bookkeeping the cycle loop skips work
  by must equal what a scan would find: each router's ``inbound.flits`` is
  the sum of its incoming channels' queue lengths, the network's busy-
  channel set is exactly the channels holding flits, and each router's
  occupied-VC and open-VC masks mark exactly its non-empty and its ACTIVE
  input VCs.
* **credit conservation** — per-VC occupancy (queue + reservations) never
  exceeds depth, reservations never go negative, and each router's
  reservation total matches the unacked copies channels hold against it.
* **VC owners** — a VC that is busy or holds flits names the packet it is
  claimed for, and holds only that packet's flits; an ACTIVE VC (the
  paper's Buffer State Table entry) routes to a real port and a real
  output VC; no VC stays claimed for a dropped packet past the drop sweep;
  a drained network holds no claim.
* **gated buffers** — a power-gated router holds no buffered flits (its
  pipeline state is off; the bypass works out of the channels).
* **delivery accounting** — no silent packet loss: every injected packet
  is completed, dropped-with-reason, or demonstrably still in flight; a
  quiescent network must account for every injected packet exactly.
* **Q-table finiteness** — no RL agent's action values are NaN/inf.
* **deadlock watchdog** — if no flit makes progress for ``watchdog_cycles``
  while work is pending, dump a structured network snapshot to the run
  artifact directory and fail.

On violation the sanitizer raises :class:`InvariantViolation` after
writing a JSON snapshot (``REPRO_SANITIZE_DIR``, default
``results/sanitizer``) so the wedged state can be audited offline.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # runtime import would be circular: network imports us
    from repro.noc.network import Network

#: Default cycle stride between checks; conservation scans are O(network),
#: so checking every cycle would dominate small runs.
DEFAULT_INTERVAL = 64

#: Default no-progress horizon before the deadlock watchdog fires.  Must
#: comfortably exceed wakeup latencies and ECC pipeline stalls.
DEFAULT_WATCHDOG_CYCLES = 5_000

#: Q-tables are scanned every Nth check, not every check: a full-table
#: scan is O(states) and pre-trained tables hold thousands of rows, while
#: a NaN/inf row can never revert to finite — so a sparser audit loses no
#: detection power, only latency.  The first check always scans.
QTABLE_CHECK_EVERY = 16


class InvariantViolation(RuntimeError):
    """A runtime invariant failed; the simulation state is not trustworthy."""

    def __init__(self, check: str, cycle: int, detail: str,
                 snapshot_path: Path | None = None) -> None:
        location = f" (snapshot: {snapshot_path})" if snapshot_path else ""
        super().__init__(f"[{check}] cycle {cycle}: {detail}{location}")
        self.check = check
        self.cycle = cycle
        self.detail = detail
        self.snapshot_path = snapshot_path


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


def _drained(network: "Network") -> bool:
    """The workload has fully arrived and no flit is queued at a source,
    buffered in a router or in flight on a channel."""
    return (
        network._trace_index >= len(network._events)
        and not any(s.pending_packets for s in network.sources)
        and not any(r._flit_count for r in network.routers)
        and not any(c.queue for c in network.channels)
    )


class NocSanitizer:
    """Invariant checker attached to one :class:`~repro.noc.network.Network`."""

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        watchdog_cycles: int = DEFAULT_WATCHDOG_CYCLES,
        snapshot_dir: str | Path | None = None,
    ) -> None:
        if interval < 1:
            raise ValueError("check interval must be at least one cycle")
        if watchdog_cycles < interval:
            raise ValueError("watchdog horizon must cover at least one interval")
        self.interval = interval
        self.watchdog_cycles = watchdog_cycles
        self.snapshot_dir = Path(
            snapshot_dir
            if snapshot_dir is not None
            else os.environ.get("REPRO_SANITIZE_DIR", "results/sanitizer")
        )
        self.checks_run = 0
        self.violations_seen = 0
        self._progress_signature: tuple[int, ...] | None = None
        self._stalled_since: int | None = None

    @classmethod
    def from_env(cls) -> "NocSanitizer | None":
        """A sanitizer when ``REPRO_SANITIZE`` is set truthy, else None."""
        if not _env_truthy("REPRO_SANITIZE"):
            return None
        return cls()

    # --- entry point ----------------------------------------------------------

    def observe(self, network: "Network", cycle: int) -> None:
        """Run all checks if *cycle* falls on the check stride."""
        if cycle % self.interval:
            return
        self.checks_run += 1
        self._check_bookkeeping(network, cycle)
        self._check_flit_conservation(network, cycle)
        self._check_occupancy_counters(network, cycle)
        self._check_credit_conservation(network, cycle)
        self._check_vc_owners(network, cycle)
        self._check_gated_buffers(network, cycle)
        self._check_delivery_accounting(network, cycle)
        self._check_qtables(network, cycle)
        self._check_watchdog(network, cycle)

    def _fail(self, network: "Network", check: str, cycle: int, detail: str) -> None:
        self.violations_seen += 1
        path = self._dump_snapshot(network, cycle, check, detail)
        raise InvariantViolation(check, cycle, detail, path)

    # --- checks ---------------------------------------------------------------

    def _check_bookkeeping(self, network: "Network", cycle: int) -> None:
        """Per-router cached counters must match the actual buffer state."""
        for router in network.routers:
            buffered = sum(
                len(vc.queue)
                for port in router.input_ports.values()
                for vc in port.vcs
            )
            if buffered != router._flit_count:
                self._fail(
                    network, "flit-conservation", cycle,
                    f"router {router.id}: _flit_count={router._flit_count} "
                    f"but buffers hold {buffered} flits",
                )

    def _check_flit_conservation(self, network: "Network", cycle: int) -> None:
        """sourced == ejected + buffered + in-flight + dropped-with-reason."""
        sourced = sum(s.flits_popped for s in network.sources)
        ejected = network.stats.flits_ejected_total
        buffered = sum(r._flit_count for r in network.routers)
        in_flight = sum(len(c.queue) for c in network.channels)
        dropped = network.stats.flits_dropped
        if sourced != ejected + buffered + in_flight + dropped:
            self._fail(
                network, "flit-conservation", cycle,
                f"sourced={sourced} != ejected={ejected} + buffered={buffered}"
                f" + in_flight={in_flight} + dropped={dropped} (leak of "
                f"{sourced - ejected - buffered - in_flight - dropped} flits)",
            )

    def _check_occupancy_counters(self, network: "Network", cycle: int) -> None:
        """The counters that let ``Network.step`` skip idle routers and
        empty channels must match a full scan."""
        from repro.noc.vc import VcState

        for router in network.routers:
            queued = sum(len(c.queue) for c in router.incoming.values())
            if router.inbound.flits != queued:
                self._fail(
                    network, "occupancy-counters", cycle,
                    f"router {router.id}: inbound.flits={router.inbound.flits} "
                    f"but its incoming channels queue {queued} flits",
                )
            occupied = active = 0
            for bit, (_, _, vc) in enumerate(router._vc_slots):
                if vc.queue:
                    occupied |= 1 << bit
                if vc.state is VcState.ACTIVE:
                    active |= 1 << bit
            if router._occupied_vcs != occupied:
                self._fail(
                    network, "occupancy-counters", cycle,
                    f"router {router.id}: occupied-VC mask "
                    f"{router._occupied_vcs:#b} but buffers say {occupied:#b}",
                )
            if router._open_vcs != active:
                self._fail(
                    network, "occupancy-counters", cycle,
                    f"router {router.id}: open-VC mask "
                    f"{router._open_vcs:#b} but ACTIVE VCs say {active:#b}",
                )
        busy = {i for i, c in enumerate(network.channels) if c.queue}
        if network._busy_channels != busy:
            stale = sorted(network._busy_channels ^ busy)
            self._fail(
                network, "occupancy-counters", cycle,
                f"busy-channel set disagrees with the queues on channels {stale}",
            )

    def _check_credit_conservation(self, network: "Network", cycle: int) -> None:
        reserved_by_router = dict.fromkeys(range(len(network.routers)), 0)
        for channel in network.channels:
            for pending in channel.pending_acks.values():
                _, owner = pending
                reserved_by_router[owner.id] = reserved_by_router.get(owner.id, 0) + 1
        port_name = network.topology.port_name
        for router in network.routers:
            for port in router.input_ports.values():
                for vci, vc in enumerate(port.vcs):
                    if vc.reserved < 0:
                        self._fail(
                            network, "credit-conservation", cycle,
                            f"router {router.id} {port_name(port.direction)}/vc{vci}: "
                            f"negative reservation count {vc.reserved}",
                        )
                    if len(vc.queue) + vc.reserved > vc.depth:
                        self._fail(
                            network, "credit-conservation", cycle,
                            f"router {router.id} {port_name(port.direction)}/vc{vci}: "
                            f"occupancy {len(vc.queue)}+{vc.reserved} exceeds "
                            f"depth {vc.depth}",
                        )
            if router._reserved_count != reserved_by_router[router.id]:
                self._fail(
                    network, "credit-conservation", cycle,
                    f"router {router.id}: _reserved_count="
                    f"{router._reserved_count} but channels hold "
                    f"{reserved_by_router[router.id]} unacked copies against it",
                )

    def _check_vc_owners(self, network: "Network", cycle: int) -> None:
        from repro.noc.vc import VcState

        port_name = network.topology.port_name
        ports = range(network.topology.num_ports)
        pending = {id(p) for p in network._pending_drops}
        drained = _drained(network)
        for router in network.routers:
            out_vcs = range(router.noc.num_vcs)
            for port, vci, vc in router._vc_slots:
                owner = vc.owner
                if vc.state is VcState.ACTIVE and not (
                    vc.route in ports and vc.out_vc in out_vcs
                ):
                    problem = (
                        f"is ACTIVE with an out-of-range route "
                        f"(port {vc.route}, VC {vc.out_vc})"
                    )
                elif owner is None:
                    if vc.state is VcState.IDLE and not vc.queue:
                        continue
                    problem = f"is {vc.state.value} but has no owner"
                elif drained:
                    problem = f"is claimed by packet {owner.pid} on a drained network"
                elif owner.dropped_reason is not None and id(owner) not in pending:
                    problem = f"is claimed by packet {owner.pid}, dropped before the last sweep"
                elif any(flit.packet is not owner for flit, _ in vc.queue):
                    problem = f"buffers flits of a packet other than its owner {owner.pid}"
                else:
                    continue
                self._fail(
                    network, "vc-owners", cycle,
                    f"router {router.id} {port_name(port.direction)}/vc{vci} {problem}",
                )

    def _check_gated_buffers(self, network: "Network", cycle: int) -> None:
        from repro.noc.power_gating import PowerState

        for router in network.routers:
            if router.gating.state is not PowerState.GATED:
                continue
            if router._flit_count:
                self._fail(
                    network, "gated-buffers", cycle,
                    f"router {router.id} is GATED but holds "
                    f"{router._flit_count} buffered flits",
                )

    def _check_delivery_accounting(self, network: "Network", cycle: int) -> None:
        """No silent packet loss: every injected packet must end up
        completed, dropped-with-reason, or still in flight — and once the
        network is quiescent the three resolved buckets must cover the
        injected count exactly."""
        stats = network.stats
        resolved = stats.packets_resolved
        if resolved > stats.packets_injected:
            self._fail(
                network, "delivery-accounting", cycle,
                f"resolved packets ({stats.packets_completed} completed + "
                f"{stats.packets_dropped} dropped + "
                f"{stats.packets_undeliverable} undeliverable) exceed "
                f"injected={stats.packets_injected}",
            )
        if not _drained(network):
            return  # workload still arriving, or packets legitimately in flight
        if resolved != stats.packets_injected:
            self._fail(
                network, "delivery-accounting", cycle,
                f"network is quiescent but only {resolved} of "
                f"{stats.packets_injected} injected packets are accounted "
                f"for (completed={stats.packets_completed}, "
                f"dropped={stats.packets_dropped}, "
                f"undeliverable={stats.packets_undeliverable}): silent loss",
            )

    def _check_qtables(self, network: "Network", cycle: int) -> None:
        if self.checks_run % QTABLE_CHECK_EVERY != 1:
            return
        agents = network.policy.agents
        if not agents:
            return
        # During pre-training every agent shares one table; audit each
        # distinct table object once, not once per agent.
        scanned: set[int] = set()
        for agent in agents:
            if id(agent.qtable) in scanned:
                continue
            scanned.add(id(agent.qtable))
            if not agent.qtable.is_finite():
                self._fail(
                    network, "qtable-finite", cycle,
                    f"router {agent.router}: Q-table contains NaN/inf values",
                )

    def _check_watchdog(self, network: "Network", cycle: int) -> None:
        stats = network.stats
        pending_sources = sum(s.pending_packets for s in network.sources)
        buffered = sum(r._flit_count for r in network.routers)
        in_flight = sum(len(c.queue) for c in network.channels)
        signature = (
            stats.packets_injected,
            stats.packets_completed,
            stats.flits_delivered,
            stats.flits_ejected_total,
            stats.bypass_traversals,
            stats.hop_retransmissions,
            sum(s.flits_popped for s in network.sources),
            buffered,
            in_flight,
            pending_sources,
            network._trace_index,
            # Scenario drops are progress too: a degraded network resolving
            # packets by refusal must not trip the deadlock watchdog.
            stats.flits_dropped,
            stats.packets_undeliverable,
            stats.packets_dropped_dead_router,
            stats.packets_dropped_dead_link,
        )
        work_pending = bool(pending_sources or buffered or in_flight)
        if signature != self._progress_signature or not work_pending:
            self._progress_signature = signature
            self._stalled_since = cycle if work_pending else None
            return
        assert self._stalled_since is not None
        if cycle - self._stalled_since >= self.watchdog_cycles:
            self._fail(
                network, "deadlock-watchdog", cycle,
                f"no flit progress since cycle {self._stalled_since} "
                f"({pending_sources} packets queued, {buffered} flits "
                f"buffered, {in_flight} in flight)",
            )

    # --- snapshot --------------------------------------------------------------

    def snapshot(self, network: "Network", cycle: int) -> dict[str, Any]:
        """Structured dump of the network state for offline debugging."""
        port_name = network.topology.port_name
        routers = []
        for router in network.routers:
            ports = {}
            for direction, port in router.input_ports.items():
                vcs = []
                for vc in port.vcs:
                    vcs.append({
                        "state": vc.state.value,
                        "occupancy": len(vc.queue),
                        "reserved": vc.reserved,
                        "route": port_name(vc.route) if vc.route is not None else None,
                        "out_vc": vc.out_vc,
                        "flits": [repr(f) for f, _ in vc.queue],
                        "owner": vc.owner.pid if vc.owner is not None else None,
                    })
                ports[port_name(direction)] = {
                    "claimed": [
                        vci for vci, vc in enumerate(port.vcs) if vc.owner is not None
                    ],
                    "vcs": vcs,
                }
            routers.append({
                "id": router.id,
                "mode": router.mode,
                "gating": router.gating.state.value,
                "flit_count": router._flit_count,
                "reserved_count": router._reserved_count,
                "ports": ports,
            })
        channels = [
            {
                "src": c.src,
                "dst": c.dst,
                "direction": c.direction.name,
                "function": c.function.value,
                "occupancy": len(c.queue),
                "capacity": c.capacity,
                "down": c.down,
                "dead": c.dead,
                "copies": len(c.copies),
                "pending_acks": len(c.pending_acks),
                "head": repr(c.queue[0][0]) if c.queue else None,
                "head_ready_cycle": c.queue[0][1] if c.queue else None,
            }
            for c in network.channels
        ]
        sources = [
            {
                "node": s.node,
                "pending_packets": s.pending_packets,
                "current_vc": s.current_vc,
                "flits_popped": s.flits_popped,
            }
            for s in network.sources
            if not s.is_empty()
        ]
        stats = network.stats
        return {
            "cycle": cycle,
            "technique": network.technique.name,
            "stats": {
                "packets_injected": stats.packets_injected,
                "packets_completed": stats.packets_completed,
                "flits_delivered": stats.flits_delivered,
                "flits_ejected": stats.flits_ejected_total,
                "hop_retransmissions": stats.hop_retransmissions,
                "bypass_traversals": stats.bypass_traversals,
                "packets_dropped_dead_router": stats.packets_dropped_dead_router,
                "packets_dropped_dead_link": stats.packets_dropped_dead_link,
                "packets_undeliverable": stats.packets_undeliverable,
                "flits_dropped": stats.flits_dropped,
            },
            "routers": routers,
            "channels": channels,
            "busy_sources": sources,
        }

    def _dump_snapshot(
        self, network: "Network", cycle: int, check: str, detail: str
    ) -> Path | None:
        try:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
            payload = self.snapshot(network, cycle)
            payload["violation"] = {"check": check, "detail": detail}
            path = self.snapshot_dir / f"{check}-cycle{cycle}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True))
            return path
        except OSError:
            return None  # diagnostics must never mask the violation itself
