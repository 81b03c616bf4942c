"""The whole-system simulator: fabric + channels + faults + power + control.

:class:`Network` owns the routers, the inter-router channels, the fault /
thermal / aging models, the energy accountant, and the control policy, and
advances everything cycle by cycle:

1. trace events whose time has come enter the per-node source queues;
2. gating state machines tick (wakeups complete, drains finish);
3. channels deliver ready flits into powered routers — this is where link
   bit errors are sampled and the per-hop ECC outcome (correct / NACK /
   silent) is applied;
4. powered routers run their pipeline; gated bypass routers forward one
   flit through the bypass switch;
5. source queues inject into local input ports;
6. on stats-epoch boundaries leakage is charged, temperatures and aging
   advance; on control-epoch boundaries the mode policy runs.
"""

from __future__ import annotations

import numpy as np

from collections.abc import Callable
from functools import partial
from typing import TYPE_CHECKING

from repro.channels.mfac import CHANNEL_RELAXED, Channel
from repro.config import ECC_CRC, EccScheme, SimulationConfig
from repro.ecc.outcomes import (
    OUTCOME_CORRECTED,
    OUTCOME_RETRANSMIT,
    ErrorSampler,
    decode_outcome,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.control.policies import ModePolicy
    from repro.power.accounting import EpochPower
    from repro.telemetry import SimProfiler, Telemetry
from repro.faults.aging import AgingModel
from repro.faults.scenario import (
    REASON_DEAD_LINK,
    REASON_DEAD_ROUTER,
    REASON_UNDELIVERABLE,
    FaultScenario,
    ScenarioEngine,
    build_scenario,
)
from repro.faults.thermal import ThermalModel
from repro.faults.transient import TransientFaultModel
from repro.noc.flit import Flit, Packet
from repro.noc.power_gating import (
    POWER_DRAINING,
    POWER_GATED,
    POWER_ON,
    POWER_WAKING,
)
from repro.noc.router import Router
from repro.noc.statistics import NetworkStatistics
from repro.noc.topology import build_topology
from repro.noc.vc import VC_ACTIVE, VC_ROUTING, VC_WAITING_VA
from repro.power.accounting import EnergyAccountant
from repro.power.model import PowerModel
from repro.traffic.injection import SourceQueue
from repro.traffic.trace import Trace
from repro.utils.rng import RngFactory

MAX_E2E_RETRIES = 16  # safety valve; never reached at realistic error rates


class Network:
    """One simulated NoC running one workload under one technique."""

    def __init__(
        self,
        config: SimulationConfig,
        trace: Trace,
        policy: "ModePolicy | None" = None,
        sanitizer: "object | None" = None,
        telemetry: "Telemetry | None" = None,
        scenario: FaultScenario | None = None,
        simprof: "SimProfiler | None" = None,
    ):
        from repro.analysis.sanitizer import NocSanitizer
        from repro.control.policies import make_policy

        self.config = config
        self.technique = config.technique
        noc = config.noc
        self.topology = build_topology(noc)
        self.trace = trace
        # NoCSan: read-only invariant checks, default-off (REPRO_SANITIZE=1
        # or an explicitly passed sanitizer).  Never changes results.
        self.sanitizer = sanitizer if sanitizer is not None else NocSanitizer.from_env()

        self.rngs = RngFactory(config.seed)
        self.stats = NetworkStatistics(
            self.topology.num_routers,
            seed=config.seed,
            num_ports=self.topology.num_ports,
        )
        self.accountant = EnergyAccountant(self.topology.num_routers, config.power)
        self.thermal = ThermalModel(noc, config.faults, topology=self.topology)
        self.aging = AgingModel(config.faults, self.topology.num_routers)
        self.fault_model = TransientFaultModel(config.faults)
        self.sampler = ErrorSampler(
            noc.flit_bits,
            self.rngs.stream("faults"),
            multi_bit_fraction=config.faults.multi_bit_fraction,
            burst_extra_bits_mean=config.faults.burst_extra_bits_mean,
        )
        self.power_model = PowerModel(self.technique, config.power)
        self.invalidate_hop_rates()

        self.policy = policy if policy is not None else make_policy(
            self.technique, self.topology.num_routers, self.rngs
        )

        self.routers: list[Router] = []
        self.channels: list[Channel] = []
        # Indices (into ``channels``) of the channels holding flits; the
        # channels keep it current, the per-cycle walks read it sorted.
        self._busy_channels: set[int] = set()
        # Source queues are per *node* (traffic endpoint); on a concentrated
        # mesh several nodes share one router, so the node->router / port
        # maps below are precomputed once and consulted on the hot paths.
        topo = self.topology
        self.sources = [SourceQueue(i) for i in range(topo.num_nodes)]
        self._node_router = [topo.router_of_node(n) for n in range(topo.num_nodes)]
        self._node_port = [topo.injection_port(n) for n in range(topo.num_nodes)]
        self._router_locals: list[list[tuple[int, SourceQueue]]] = [
            [(topo.injection_port(n), self.sources[n]) for n in topo.local_nodes(rid)]
            for rid in range(topo.num_routers)
        ]
        # The failure set (``fail_router`` / ``fail_link`` grow it), which
        # every router routes around.
        self.dead_routers: dict[int, int] = {}  # rid -> kill cycle
        self.dead_links: dict[tuple[int, int], int] = {}  # (src, dir) -> cycle
        self._build()

        self.cycle = 0
        self._trace_index = 0
        self._events = trace.events
        self._control_energy_mark = np.zeros(self.topology.num_routers)
        self._out_flits_mark = np.zeros(self.topology.num_routers)
        self._running_avg_latency = 20.0  # reward fallback before data exists
        self._active_sources: set[int] = set()

        # Fault-scenario engine.  With no scenario configured, every hook
        # below is behind a single attribute/bool check and the run is
        # bit-identical to a build without this machinery (the same
        # contract telemetry honors).
        if scenario is None and config.noc.fault_scenario:
            scenario = build_scenario(config.noc.fault_scenario, self.topology)
        self._scenario = (
            ScenarioEngine(scenario, self) if scenario is not None else None
        )
        # Scripted link strikes: the error-sampling path asks only when the
        # scenario has some.
        self._strike = (
            self._scenario.strike
            if self._scenario is not None and self._scenario.pending_strikes
            else None
        )
        self._pending_drops: list[Packet] = []
        self._recovery_pending_since: int | None = None

        # Telemetry: pure observation, never control flow.  The hot paths
        # guard on `_tel is not None`, so a missing hub costs one attribute
        # check and runs are bit-identical to uninstrumented ones (the
        # unobserved-path contract of docs/observability.md).
        self._tel = telemetry
        # Per-step sampled view of the hub: `step` resolves the stride check
        # once per cycle so the per-event hot paths (retransmit, ejection)
        # test a single attribute instead of two calls per event.
        self._tel_sampled: "Telemetry | None" = None
        if self._tel is not None:
            self._init_telemetry()

        # Step-phase profiler (docs/observability.md).  Like the sanitizer
        # and telemetry: pure observation.  Its probes sit in the one body
        # of `step`, one `is not None` test each unless the step is
        # sampled, and the profiler clock never feeds back into simulation
        # state, so profiled runs are bit-identical to unprofiled ones
        # (tests/telemetry/test_simprof_identical.py).
        self._simprof = simprof
        if simprof is not None:
            simprof.channel_labels = [
                f"r{ch.src}->{ch.direction.name.lower()}->r{ch.dst}"
                for ch in self.channels
            ]

    # --- construction ---------------------------------------------------------

    def _build(self) -> None:
        noc = self.config.noc
        for rid in range(self.topology.num_routers):
            router = Router(
                rid,
                self.technique,
                self.config.power,
                self.topology,
                self.stats.routers[rid],
                charge=self._make_charger(rid),
                on_eject=self._make_ejector(rid),
                on_drop=self._mark_dropped,
            )
            router.sample_link_errors = self._sample_channel_errors
            router.dead_routers = self.dead_routers
            router.dead_links = self.dead_links
            self.routers.append(router)
        for src, direction, dst in self.topology.channels():
            channel = Channel(
                src,
                direction,
                dst,
                buffer_depth=noc.channel_buffer_depth,
                links=noc.channel_links,
                subnetworks=noc.subnetworks,
                link_latency=noc.link_latency,
                is_mfac=self.technique.uses_mfac,
                index=len(self.channels),
                inbound=self.routers[dst].inbound,
                busy=self._busy_channels,
                link_energy_pj=self.power_model.link_energy_pj,
            )
            self.channels.append(channel)
            self.routers[src].outgoing[direction] = channel
            self.routers[dst].incoming[direction.opposite] = channel
            self.routers[src].downstream_ports[direction] = self.routers[dst].input_ports[
                direction.opposite
            ]
            self.routers[src].downstream_routers[direction] = self.routers[dst]
        for router in self.routers:
            router.finish_wiring()

    def _make_charger(self, rid: int):
        return partial(self.accountant.add_dynamic, rid)

    def _make_ejector(self, rid: int):
        return partial(self._handle_ejection, rid)

    # --- telemetry (observed runs only; see docs/observability.md) --------------

    def _init_telemetry(self) -> None:
        """Attach the observation hooks."""
        self._epoch_power: "EpochPower | None" = None
        for router in self.routers:
            router.telemetry = self._tel
            router.ecc.on_transition = self._make_ecc_observer(router.id)

    def _make_ecc_observer(self, rid: int):
        tel = self._tel

        def observe(old: EccScheme, new: EccScheme) -> None:
            tel.record("ecc", self.cycle, router=rid, prev=old.value, scheme=new.value)

        return observe

    def _gauges(self) -> dict[str, float]:
        """Point-in-time physics and power, read from model state."""
        gauges = {
            "mean_temp_k": self.thermal.mean_temperature(),
            "peak_temp_k": self.thermal.peak_temperature_k,
            "max_aging": self.aging.max_aging(),
            "max_delta_vth_v": self.aging.max_delta_vth(),
            "powered_routers": sum(1 for r in self.routers if r.gating.powered),
            "channel_flits": sum(c.occupancy for c in self.channels),
        }
        power = self._epoch_power
        if power is not None:
            gauges["power_w"] = float(power.total_w.sum())
            gauges["dynamic_w"] = float(power.dynamic_w.sum())
            gauges["static_w"] = float(power.static_w.sum())
        return gauges

    def _observe_epoch(self, now: int, power: "EpochPower") -> None:
        """Keep the epoch's power for `final`; on the stride, record a
        `sample`.  Nothing here touches the per-cycle hot path."""
        self._epoch_power = power
        tel = self._tel
        if tel.sampled(now):
            tel.record(
                "sample", now,
                injected=self.stats.packets_injected,
                completed=self.stats.packets_completed,
                **self._gauges(),
            )

    def _record_control(self, now: int, applied: list[int]) -> None:
        """Trace one control step: the applied-mode census plus, on the
        stride, each RL agent's reward decomposition and Q diagnostics."""
        tel = self._tel
        census = {str(m): 0 for m in range(5)}
        for mode in applied:
            census[str(mode)] += 1
        tel.record("control", now, modes=census)
        agents = getattr(self.policy, "agents", None)
        if agents is None or not tel.sampled(now):
            return
        for agent in agents:
            terms = agent.last_reward_terms
            tel.record(
                "rl",
                now,
                router=agent.router,
                mode=agent.last_action,
                reward=round(agent.last_reward, 6),
                latency_term=round(terms[0], 6),
                power_term=round(terms[1], 6),
                aging_term=round(terms[2], 6),
                explored=agent.last_explored,
                q_delta=round(agent.last_q_delta, 9),
                table_entries=len(agent.qtable),
            )

    def finalize_telemetry(self) -> None:
        """Close the event stream with the `final` record: every run total,
        read from model state, and the last gauge values (runs rarely end
        exactly on an epoch boundary).  No-op when unobserved."""
        tel = self._tel
        if tel is None:
            return
        stats = self.stats
        tel.finish(
            self.cycle,
            injected=stats.packets_injected,
            completed=stats.packets_completed,
            flit_hops=stats.flits_delivered,
            flits_ejected=stats.flits_ejected_total,
            hop_retransmissions=stats.hop_retransmissions,
            e2e_retransmission_flits=stats.e2e_retransmission_flits,
            retransmitted_flits=stats.total_retransmitted_flits,
            corrected_flits=stats.corrected_flits,
            silent_corruptions=stats.silent_corruptions,
            bypass_traversals=stats.bypass_traversals,
            gate_transitions=sum(r.gating.gate_count for r in self.routers),
            wake_transitions=sum(r.gating.wake_count for r in self.routers),
            mfac_function_switches=sum(c.function_switches for c in self.channels),
            latency_sum=stats.latency_sum,
            latency_count=stats.latency_count,
            **self._gauges(),
        )

    # --- public API -------------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Advance the simulation by *cycles* cycles."""
        if cycles < 0:
            raise ValueError("cannot run a negative number of cycles")
        for _ in range(cycles):
            self.step()

    def run_to_completion(self, max_cycles: int) -> int:
        """Run until every trace packet completed (or the cap is hit).

        Returns the execution time in cycles — the paper's speed-up metric
        numerator/denominator.
        """
        while self.cycle < max_cycles:
            if (
                self._trace_index >= len(self._events)
                and not self._active_sources
                # resolved = completed + dropped-with-reason + refused:
                # scenario drops must not stall termination, and nothing
                # may terminate while a packet is unaccounted for.
                and self.stats.packets_resolved >= self.stats.packets_injected
                and self._network_drained()
            ):
                return self.cycle
            self.step()
        return self.cycle

    def _busy_channels_in_order(self) -> list[Channel]:
        """The channels holding flits, in channel-list order (a snapshot:
        walkers may empty channels as they go).  Order matters — it fixes
        the sequence of error-sampling draws and of energy additions."""
        channels = self.channels
        return [channels[index] for index in sorted(self._busy_channels)]

    def _network_drained(self) -> bool:
        if self._busy_channels:
            return False
        return all(r.is_empty() for r in self.routers)

    # --- one cycle ----------------------------------------------------------------

    def step(self) -> None:
        cycle = self.cycle
        # The profiler's probes live in this one body: on a sampled step
        # `lap` attributes the wall time since the previous probe to a
        # STEP_PHASES bucket; otherwise it is None and a probe is one test.
        prof = self._simprof
        lap = prof.lap if prof is not None and prof.begin_step(cycle) else None
        tel = self._tel
        if tel is not None:
            # Satellite of ROADMAP item 1: resolve the trace-stride check
            # once per step; per-event sites read `_tel_sampled` directly.
            self._tel_sampled = tel if cycle % tel.trace_stride == 0 else None
        if self._scenario is not None:
            self._scenario.tick(cycle)
        if lap is not None:
            lap("scenario.tick")
        if self._pending_drops:
            # Packets marked dropped after the last sweep (e.g. by a router
            # that found its committed output dead): excise their flits now,
            # before this cycle moves anything.
            self._flush_drops(cycle)
        if lap is not None:
            lap("drops.flush")
        self._admit_trace_events(cycle)
        if lap is not None:
            lap("trace.admit")
        for router in self.routers:
            state = router.gating.state
            if state is POWER_WAKING or state is POWER_DRAINING:
                router.gating.tick(cycle, router.is_empty())
        if lap is not None:
            lap("gating.tick")
        self._deliver_channels(cycle)
        if lap is not None:
            lap("link.deliver")
        self._step_routers(cycle, lap)
        self._inject(cycle)
        if lap is not None:
            lap("inject")
        next_cycle = cycle + 1
        if next_cycle % self.config.stats_epoch == 0:
            self._stats_epoch(next_cycle)
        if lap is not None:
            lap("stats.epoch")
        if self.policy.adapts and next_cycle % self.technique.rl.time_step == 0:
            self._control_step(next_cycle)
        if lap is not None:
            lap("control.rl")
        self.cycle = next_cycle
        if self.sanitizer is not None:
            self.sanitizer.observe(self, next_cycle)
        if lap is not None:
            lap("sanitizer.observe")
        if prof is not None and lap is not None:
            if prof.heat:
                prof.end_step(
                    router_flits=[r._flit_count for r in self.routers],
                    channel_flits=[ch.occupancy for ch in self.channels],
                )
            else:
                prof.end_step()

    # --- phase 0: workload ----------------------------------------------------------

    def _admit_trace_events(self, cycle: int) -> None:
        events = self._events
        while self._trace_index < len(events) and events[self._trace_index].cycle <= cycle:
            ev = events[self._trace_index]
            self._trace_index += 1
            packet = Packet.create(ev.src, ev.dst, ev.size, cycle, expects_reply=ev.reply)
            if self.dead_routers and self._endpoint_dead(ev.src, ev.dst):
                self._refuse_packet(packet, cycle)
                continue
            self.sources[ev.src].enqueue(packet)
            self._active_sources.add(ev.src)
            self.stats.record_injection()

    # --- phase 2: channel delivery -----------------------------------------------------

    def _hop_error_rates(self, channel: Channel) -> tuple[float, float]:
        """(per-bit error rate, Eq. 3 flit fault probability) of one
        traversal of *channel*.

        Both depend only on the upstream router's temperature, its burst
        multiplier and whether the hop runs relaxed timing, so they are
        memoised per (relaxed, source router) until
        :meth:`invalidate_hop_rates`.
        """
        src = channel.src
        relaxed = (
            self.routers[src].relaxed_timing
            or channel.function is CHANNEL_RELAXED
        )
        memo = self._hop_rates[relaxed]
        rates = memo[src]
        if rates is None:
            rate = self.fault_model.bit_error_rate(
                self.thermal.temperature(src), relaxed_timing=relaxed
            )
            if self._scenario is not None:
                rate = self._scenario.scaled_rate(rate, src)
            p_fault = self.sampler.flit_fault_probability(rate) if rate > 0.0 else 0.0
            rates = memo[src] = (rate, p_fault)
        return rates

    def invalidate_hop_rates(self) -> None:
        """Forget the memoised link error rates.  Whoever moves a router
        temperature or a scenario error-rate multiplier calls this: the
        stats epoch after ``thermal.step``, and the scenario engine on a
        burst edge or a thermal-attack tick.  (Mode switches need no call:
        relaxed timing is part of the memo key.)"""
        unknown: list[tuple[float, float] | None] = [None] * self.topology.num_routers
        self._hop_rates = (unknown, unknown.copy())

    def _sample_channel_errors(self, channel: Channel) -> int:
        """Bit errors for one traversal (also charges the link energy)."""
        src = channel.src
        self.accountant.add_dynamic(src, channel.traversal_pj)
        if self._strike is not None:
            struck = self._strike(self.cycle, src, int(channel.direction))
            if struck:
                return struck
        # The memo of `_hop_error_rates`, read in place (it fills a miss).
        rates = self._hop_rates[
            self.routers[src].relaxed_timing
            or channel.function is CHANNEL_RELAXED
        ][src]
        if rates is None:
            rates = self._hop_error_rates(channel)
        rate, p_fault = rates
        # `ErrorSampler.sample_bit_errors(rate, p_fault)` with its first
        # stage in line: one uniform per hop (the next of the sampler's
        # pre-drawn block), stage 2 only for the rare faulty flit.
        sampler = self.sampler
        if rate <= 0.0 or sampler.uniform() >= p_fault:
            return 0
        return sampler.faulty_flit_errors(rate)

    def _deliver_channels(self, cycle: int) -> None:
        for channel in self._busy_channels_in_order():
            if channel.queue[0][1] > cycle:
                continue  # nothing ready (entries age monotonically)
            if channel.down:
                continue  # scenario outage: flits are held, not lost
            dst_router = self.routers[channel.dst]
            state = dst_router.gating.state
            if state is POWER_GATED:
                if dst_router.technique.uses_bypass:
                    continue  # the bypass switch pulls from the channel itself
                dst_router.gating.request_wakeup(cycle)
                continue
            if state is POWER_WAKING:
                continue
            # A DRAINING router must keep accepting flits of packets it is
            # already carrying: refusing them deadlocks the drain (those
            # packets' remaining flits sit in these very channels while
            # their downstream VC claims wait on the tails).  Only new
            # heads are deferred until the router has gated or re-powered.
            self._deliver_into(
                channel,
                dst_router,
                cycle,
                continuing_only=state is POWER_DRAINING,
            )

    def _deliver_into(
        self,
        channel: Channel,
        dst_router: Router,
        cycle: int,
        continuing_only: bool = False,
    ) -> None:
        """Move the due flits of *channel* into *dst_router*, up to the
        channel's bandwidth.

        The walk may look past a due flit whose VC is blocked to flits of
        other VCs (:meth:`Channel.deliverable` states the rule); a blocked
        VC stays blocked for the rest of the walk, so per-VC order holds.
        The queue shrinks under the walk, hence the index.
        """
        in_port = channel.dst_port
        vcs = dst_router.input_ports[in_port].vcs
        record_error_class = dst_router.counters.record_error_class
        upstream = self.routers[channel.src]
        ecc = upstream.ecc
        # A gated upstream's encoder is off: its hops ride on the CRC
        # (``ecc.per_hop and upstream.gating.powered``).
        state = upstream.gating.state
        per_hop = ecc.per_hop and (state is POWER_ON or state is POWER_DRAINING)
        queue = channel.queue
        budget = channel.bandwidth
        blocked_vcs = 0  # a bit per VC
        index = 0
        while budget and index < len(queue):
            entry = queue[index]
            if entry[1] > cycle:
                break  # later entries are younger and cannot be due
            flit: Flit = entry[0]
            vc_bit = 1 << flit.vc
            if blocked_vcs & vc_bit:
                index += 1
                continue
            vc = vcs[flit.vc]
            if (
                # No new packets while draining; no space in the VC.
                (continuing_only and flit.is_head)
                or len(vc.queue) + vc.reserved >= vc.depth
            ):
                blocked_vcs |= vc_bit
                index += 1
                continue
            errors = entry[2]
            if errors is None:
                errors = entry[2] = self._sample_channel_errors(channel)
            record_error_class(errors)
            if errors:
                if per_hop:
                    outcome = decode_outcome(ecc.scheme, errors)
                    if outcome is OUTCOME_RETRANSMIT:
                        # The replay re-enters at the front, behind the
                        # walk; it preserves VC order.
                        self._hop_retransmit(channel, entry, cycle)
                        blocked_vcs |= vc_bit
                        index += 1
                        continue
                    if outcome is OUTCOME_CORRECTED:
                        self.stats.corrected_flits += 1
                    else:  # SILENT
                        flit.bit_errors += errors
                        self.stats.silent_corruptions += 1
                else:
                    # No per-hop decoder: errors ride to the destination CRC.
                    flit.bit_errors += errors
            channel.dequeue(entry)
            dst_router.deliver(flit, in_port, cycle)
            self.stats.flits_delivered += 1
            budget -= 1

    def _hop_retransmit(self, channel: Channel, entry: list, cycle: int) -> None:
        """A detected-uncorrectable flit: NACK and replay (Section 3.2)."""
        channel.nack_resend(entry, cycle)
        self.stats.hop_retransmissions += 1
        self.accountant.add_dynamic(
            channel.src, self.power_model.retransmission_energy_pj()
        )
        tel = self._tel_sampled  # stride check hoisted into Network.step
        if tel is not None:
            tel.record(
                "retx", cycle, src=channel.src, dst=channel.dst,
                direction=channel.direction.name.lower(),
            )

    # --- phase 3: routers ---------------------------------------------------------------

    def _step_routers(self, cycle: int, lap: Callable[[str], None] | None) -> None:
        power_gating = self.technique.power_gating
        uses_bypass = self.technique.uses_bypass
        for router, sources in zip(self.routers, self._router_locals):
            if router.dead:
                continue
            gating = router.gating
            state = gating.state
            if state is POWER_GATED:
                # Whether the gated router can do anything this cycle
                # (never, without a bypass: it waits for its wakeup).  With
                # nothing queued toward it and no local source holding a
                # flit, `Router.bypass_step` raises no request line, so its
                # arbiter does not move and no flit does; the watchdog
                # cannot fire either, since an empty channel is not
                # congested (`congested_when_empty` covers the
                # zero-capacity exception).  Skipping the visit is then
                # exactly a no-op.
                work = False
                if uses_bypass:
                    work = router.inbound.flits or router.congested_when_empty
                    if not work:
                        for _, source in sources:
                            if source._packets or source._current_flits:
                                work = True  # not source.is_empty()
                                break
                if not work:
                    if lap is not None:
                        lap("router.bypass")
                    continue  # stays gated: the idle detector is off too
                moved = router.bypass_step(cycle, sources)
                if moved is None:
                    # Congestion watchdog: leave mode 0 early; the next
                    # control step re-decides with fresh state.
                    router.apply_mode(1, cycle)
                    self.stats.wakeups += 1
                elif moved:
                    self.stats.bypass_traversals += 1
                if lap is not None:
                    lap("router.bypass")
            elif state is not POWER_WAKING:
                router.step(cycle, lap)
            if power_gating:
                # Idle detector.  CP/CPD gate on idleness and pay a wakeup;
                # IntelliNoC also gates on idleness (Section 1) but its
                # bypass keeps forwarding sporadic flits without waking the
                # router.  The detector only counts while ON, so nothing is
                # computed for it in any other state.
                if gating.state is POWER_ON:
                    # `Router.is_idle()` and every local source empty.
                    idle = not (
                        router._flit_count or router.inbound.flits or router._open_vcs
                    )
                    if idle:
                        for _, source in sources:
                            if source._packets or source._current_flits:
                                idle = False
                                break
                    gating.observe_idle(idle, cycle)
                if lap is not None:
                    lap("router.gating")

    # --- phase 4: injection ---------------------------------------------------------------

    def _inject(self, cycle: int) -> None:
        done: list[int] = []
        # Sorted for a stable order (NOC103); nodes inject into disjoint
        # routers, so ordering cannot change the outcome — only determinism
        # of any future shared state is at stake.
        for node in sorted(self._active_sources):
            source = self.sources[node]
            if source.is_empty():
                done.append(node)
                continue
            router = self.routers[self._node_router[node]]
            in_port = self._node_port[node]
            state = router.gating.state
            if state is POWER_GATED:
                if not router.technique.uses_bypass:
                    router.gating.request_wakeup(cycle)
                continue  # bypass injection happened in phase 3
            if state is POWER_DRAINING or state is POWER_WAKING:
                continue
            flit = source.peek()
            if flit is None:
                done.append(node)
                continue
            if (
                self.dead_routers
                and flit.is_head
                and self._node_router[flit.packet.dst] in self.dead_routers
            ):
                # Destination died while this packet waited at the source:
                # refuse injection and account for it instead of letting it
                # wedge against the dead router's killed channels.
                self._mark_dropped(flit.packet, REASON_UNDELIVERABLE)
                source.discard_packet(flit.packet)
                continue
            port = router.input_ports[in_port]
            if flit.is_head:
                vci = port.free_vc_for_head()
                if vci is None:
                    continue
                port.claim(vci, flit.packet)
                source.current_vc = vci
                flit.vc = vci
                source.pop()
                flit.packet.injection_cycle = cycle
                router.deliver(flit, in_port, cycle)
            else:
                vci = source.current_vc
                if vci is None:
                    raise RuntimeError(f"node {node}: body flit with no open VC")
                if not port.vcs[vci].can_accept():
                    continue
                flit.vc = vci
                source.pop()
                router.deliver(flit, in_port, cycle)
                if flit.is_tail:
                    source.current_vc = None
        for node in done:
            self._active_sources.discard(node)

    # --- ejection / end-to-end CRC ------------------------------------------------------------

    def _handle_ejection(self, rid: int, flit: Flit, cycle: int) -> None:
        packet = flit.packet
        src_router = self._node_router[packet.src]
        self.accountant.add_dynamic(rid, self.power_model.ejection_check_energy_pj())
        packet.flits_ejected += 1
        self.stats.flits_ejected_total += 1
        if flit.bit_errors:
            outcome = decode_outcome(ECC_CRC, flit.bit_errors)
            if outcome is OUTCOME_RETRANSMIT:
                packet.needs_retry = True
            else:  # beyond the CRC's guaranteed detection: silent corruption
                packet.corrupted = True
        if not flit.is_tail:
            return
        if packet.needs_retry and packet.e2e_retransmissions < MAX_E2E_RETRIES:
            if src_router in self.dead_routers:
                # The source can never re-send: account the packet as
                # undeliverable rather than retrying into a dead NI.
                self._mark_dropped(packet, REASON_UNDELIVERABLE)
                return
            packet.reset_for_retransmission()
            self.stats.e2e_retransmission_flits += packet.size
            self.accountant.add_dynamic(
                src_router, self.power_model.retransmission_energy_pj()
            )
            self.sources[packet.src].requeue_front(packet)
            self._active_sources.add(packet.src)
            return
        packet.completion_cycle = cycle
        if packet.corrupted:
            self.stats.corrupted_packets_delivered += 1
        self.stats.record_completion(packet.latency, src_router, cycle, path=packet.path)
        if self._recovery_pending_since is not None:
            # First clean delivery since the last kill: the fabric has
            # re-converged around the damage (time-to-recover sample).
            self.stats.recovery_cycles.append(cycle - self._recovery_pending_since)
            self._recovery_pending_since = None
        tel = self._tel_sampled  # stride check hoisted into Network.step
        if tel is not None:
            tel.record(
                "packet", cycle, src=packet.src, dst=packet.dst,
                latency=packet.latency, size=packet.size, hops=len(packet.path),
            )
        n = self.stats.packets_completed
        self._running_avg_latency += (packet.latency - self._running_avg_latency) / min(
            n, 200
        )
        if packet.expects_reply and not packet.is_reply:
            # Request-reply dependency: the consumer answers (Netrace-style
            # dependent traffic; couples execution time to latency).
            reply = Packet.create(
                packet.dst, packet.src, packet.size, cycle, is_reply=True
            )
            if self.dead_routers and self._endpoint_dead(packet.dst, packet.src):
                self._refuse_packet(reply, cycle)
                return
            self.sources[packet.dst].enqueue(reply)
            self._active_sources.add(packet.dst)
            self.stats.record_injection()

    # --- fault scenarios: kills, drops, accounting ----------------------------------------------

    def find_channel(self, src_router: int, direction: int) -> Channel | None:
        """The directed channel out of *src_router*, or None (engine hook)."""
        if not 0 <= src_router < len(self.routers):
            return None
        return self.routers[src_router].outgoing.get(direction)

    def note_scenario_event(self, cycle: int, kind: str, **fields) -> None:
        """Record one fired scenario event in the telemetry stream."""
        if self._tel is not None:
            self._tel.record("scenario", cycle, event=kind, **fields)

    def _endpoint_dead(self, src_node: int, dst_node: int) -> bool:
        return (
            self._node_router[src_node] in self.dead_routers
            or self._node_router[dst_node] in self.dead_routers
        )

    def _refuse_packet(self, packet: Packet, cycle: int) -> None:
        """Refuse admission (dead endpoint): injected and resolved in one
        breath, so delivery accounting stays balanced without the packet
        ever touching a queue."""
        packet.dropped_reason = REASON_UNDELIVERABLE
        self.stats.record_injection()
        self.stats.packets_undeliverable += 1
        if self._tel is not None:
            self._tel.record(
                "drop", cycle, src=packet.src, dst=packet.dst,
                reason=REASON_UNDELIVERABLE,
            )

    def fail_router(self, rid: int, cycle: int) -> None:
        """Kill router *rid* permanently: every attached channel dies, every
        packet committed through it is dropped with accounting, local
        sources are drained, and routing goes around the hole."""
        router = self.routers[rid]
        if router.dead:
            return
        router.dead = True
        self.dead_routers[rid] = cycle
        # In-flight victims: flits wired to/from the router and the owner
        # of every VC inside it (its buffered flits are the owner's).
        for channel in [*router.outgoing.values(), *router.incoming.values()]:
            channel.kill(REASON_DEAD_ROUTER)
            for entry in channel.queue:
                self._mark_dropped(entry[0].packet, REASON_DEAD_ROUTER)
        for port in router.input_ports.values():
            for vc in port.vcs:
                if vc.owner is not None:
                    self._mark_dropped(vc.owner, REASON_DEAD_ROUTER)
        self._route_around_kill(cycle)
        # Local traffic: a mid-injection packet owns a VC here (dropped
        # above); one that never started, and everything queued, is refused.
        for node in self.topology.local_nodes(rid):
            source = self.sources[node]
            for packet in (source.current_packet(), *source.drain_queued()):
                if packet is not None:
                    self._mark_dropped(packet, REASON_UNDELIVERABLE)
        self._flush_drops(cycle)
        # Park the gating controller in GATED so the epoch accounting
        # charges dead-router leakage at the gated (power-cut) rate.
        router.gating.request_gate(cycle, router.is_empty())
        self.note_scenario_event(cycle, "router_failure", router=rid)

    def fail_link(self, src_router: int, direction: int, cycle: int) -> bool:
        """Kill one directed channel permanently.  Returns False when no
        such channel exists (scenario packs tolerate sparse fabrics)."""
        channel = self.find_channel(src_router, direction)
        if channel is None or channel.dead:
            return False
        channel.kill(REASON_DEAD_LINK)
        self.dead_links[(src_router, direction)] = cycle
        for entry in channel.queue:
            self._mark_dropped(entry[0].packet, REASON_DEAD_LINK)
        self._route_around_kill(cycle)
        self._flush_drops(cycle)
        self.note_scenario_event(
            cycle, "link_failure", src=src_router, direction=direction
        )
        return True

    def _route_around_kill(self, cycle: int) -> None:
        """After a kill: start the recovery clock, forget every memoised
        route, mark each worm committed to a channel that just died as
        dropped, and send each head waiting for VC allocation on one back
        through route computation (which drops it if no output is live)."""
        if self._recovery_pending_since is None:
            self._recovery_pending_since = cycle
        for router in self.routers:
            router._route_memo.clear()
            if router.dead:
                continue
            for _, _, vc in router._vc_slots:
                state = vc.state
                if state is VC_ACTIVE or state is VC_WAITING_VA:
                    channel = router.outgoing.get(vc.route)
                    if channel is not None and channel.dead:
                        if state is VC_ACTIVE:
                            self._mark_dropped(vc.owner, channel.dead_reason)
                        else:
                            vc.state = VC_ROUTING

    def _mark_dropped(self, packet, reason: str) -> None:
        """Resolve *packet* as dropped (idempotent).  Counters move now;
        the flit sweep runs at the next safe point (`_flush_drops`)."""
        if packet.dropped_reason is not None:
            return
        packet.dropped_reason = reason
        if reason == REASON_DEAD_ROUTER:
            self.stats.packets_dropped_dead_router += 1
        elif reason == REASON_DEAD_LINK:
            self.stats.packets_dropped_dead_link += 1
        else:
            self.stats.packets_undeliverable += 1
        self._pending_drops.append(packet)
        if self._tel is not None:
            self._tel.record(
                "drop", self.cycle, src=packet.src, dst=packet.dst, reason=reason
            )

    def _flush_drops(self, cycle: int) -> None:
        """Excise every flit of every marked packet from the fabric,
        release every VC a victim owns wherever the victim's flits are,
        and account the flits as dropped so the sanitizer's conservation
        law keeps closing."""
        victims = self._pending_drops
        self._pending_drops = []
        victim_set = {id(p): p for p in victims}
        if not victim_set:
            return
        dropped_flits = 0
        # Channels: remove queued flits, release upstream reservations.
        for channel in self._busy_channels_in_order():
            doomed = [e for e in channel.queue if id(e[0].packet) in victim_set]
            for entry in doomed:
                channel.dequeue(entry)
            dropped_flits += len(doomed)
        # Routers: release every VC a victim owns, with its buffered flits.
        for router in self.routers:
            dropped_flits += router.drop_owned(victim_set)
        # Sources: un-injected flits of a partially-injected victim (they
        # never entered the popped-flits ledger, so they are not "dropped").
        for victim in victims:
            self.sources[victim.src].discard_packet(victim)
        self.stats.flits_dropped += dropped_flits

    # --- phase 6: epochs ------------------------------------------------------------------------

    def _stats_epoch(self, now: int) -> None:
        epoch = self.config.stats_epoch
        freq = self.config.power.clock_frequency_hz
        dt = epoch / freq
        for rid, router in enumerate(self.routers):
            powered, gated = router.gating.close_epoch(now)
            scheme = router.ecc.scheme
            if powered:
                leak_on = self.power_model.router_leakage_mw(True, scheme)
                self.accountant.add_static(rid, leak_on, powered)
            if gated:
                leak_off = self.power_model.router_leakage_mw(False, scheme)
                self.accountant.add_static(rid, leak_off, gated)
            # Occupancy sample for the RL buffer-utilization features.  A
            # router holding nothing would add 0.0 to every port's sum.
            ctr = self.stats.routers[rid]
            if not router.is_empty():
                for p in self.topology.ports:
                    port = router.input_ports[p]
                    cap = port.total_capacity()
                    ctr.occupancy_samples[int(p)] += (
                        port.total_occupancy() / cap if cap else 0.0
                    )
            ctr.num_occupancy_samples += 1
            self.stats.record_mode_cycles(router.mode, epoch)
            # Aging: full stress while powered, residual calendar wear
            # while gated (GATED_NBTI_FRACTION inside the model).  Activity
            # is this epoch's delta (the counters reset on control steps,
            # not stats epochs, and never for static techniques).
            out_total = float(sum(ctr.out_flits))
            activity = (out_total - self._out_flits_mark[rid]) / max(1, 5 * epoch)
            self._out_flits_mark[rid] = out_total
            temperature = self.thermal.temperature(rid)
            if powered:
                self.aging.accumulate(
                    rid,
                    dt * (powered / epoch),
                    temperature,
                    min(1.0, activity),
                    powered=True,
                )
            if gated:
                self.aging.accumulate(
                    rid, dt * (gated / epoch), temperature, 0.0, powered=False
                )
        # Channel hold energy: flits parked in channel buffers burn refresh
        # energy every cycle; sampled at epoch granularity.
        hold_pj = self.config.power.channel_buffer_hold_pj
        for channel in self._busy_channels_in_order():
            stored = channel.stored_flits(now - 1)
            if stored:
                self.accountant.add_dynamic(channel.src, stored * hold_pj * epoch)
        snapshot = self.accountant.close_epoch(now)
        self.thermal.step(snapshot.total_w, dt)
        self.invalidate_hop_rates()
        if self._tel is not None:
            self._observe_epoch(now, snapshot)

    # The stress-relaxing bypass "is operational for even low-to-moderate
    # traffic load" (Section 3.3): its single-flit-per-cycle switch cannot
    # sustain more, so mode-0 requests above this total input rate
    # (flits/cycle across the five ports) fall back to mode 1.
    BYPASS_LOAD_LIMIT = 0.4

    def _bypass_admissible(self, router: Router, obs) -> bool:
        """Whether the router may enter mode 0 right now.

        Two checks: the measured input rate must be within the bypass
        switch's capability, and no incoming channel may be backed up —
        under congestion collapse throughput measurements read *low*, so
        occupancy is the reliable signal.
        """
        if float(obs.in_link_utilization.sum()) > self.BYPASS_LOAD_LIMIT:
            return False
        for channel in router.incoming.values():
            if channel.occupancy >= max(2, channel.capacity // 2):
                return False
        if router._flit_count > router.noc.total_router_buffer_flits:
            return False
        return True

    def _control_step(self, now: int) -> None:
        observations = self._observe(now)
        modes = self.policy.control_step(observations, now)
        if modes is not None:
            rl_pj = self.power_model.rl_step_energy_pj()
            applied: list[int] = []
            for router, mode, obs in zip(self.routers, modes, observations):
                if router.dead:
                    continue  # no hardware left to reconfigure
                if rl_pj:
                    self.accountant.add_dynamic(router.id, rl_pj)
                if mode == 0 and not self._bypass_admissible(router, obs):
                    mode = 1
                router.apply_mode(mode, now)
                applied.append(mode)
            if self._tel is not None:
                self._record_control(now, applied)
        self.stats.reset_epoch()
        self._out_flits_mark[:] = 0.0

    def _observe(self, now: int) -> list:
        from repro.rl.state import RouterObservation

        window = self.technique.rl.time_step
        freq = self.config.power.clock_frequency_hz
        seconds = window / freq
        total_energy = self.accountant.static_pj + self.accountant.dynamic_pj
        window_energy = total_energy - self._control_energy_mark
        self._control_energy_mark = total_energy.copy()
        observations = []
        for rid in range(self.topology.num_routers):
            power_w = max(0.0, float(window_energy[rid]) * 1e-12 / seconds)
            observations.append(
                RouterObservation.from_counters(
                    rid,
                    self.stats.routers[rid],
                    window,
                    self.thermal.temperature(rid),
                    power_w,
                    self._running_avg_latency,
                    self.aging.aging_factor(rid),
                )
            )
        return observations

    # --- summaries -------------------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Network({self.technique.name}, cycle={self.cycle}, "
            f"completed={self.stats.packets_completed}/{self.stats.packets_injected})"
        )
