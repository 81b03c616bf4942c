"""Integration tests for power gating and the stress-relaxing bypass."""

from dataclasses import replace

import pytest

from repro.config import CP, FaultConfig, INTELLINOC, SimulationConfig
from repro.control.policies import ModePolicy
from repro.noc.network import Network
from repro.noc.power_gating import PowerState
from repro.noc.routing import Direction
from repro.noc.vc import VcState
from repro.traffic.trace import Trace, TraceEvent

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)


class FixedModePolicy(ModePolicy):
    """Drives every router into a fixed operation mode (for testing)."""

    def __init__(self, mode: int):
        self.mode = mode

    def control_step(self, observations, cycle):
        return [self.mode] * len(observations)


def intellinoc_network(events, mode, time_step=200):
    technique = INTELLINOC.with_rl(time_step=time_step)
    config = SimulationConfig(technique=technique, seed=1, faults=NO_FAULTS)
    return Network(config, Trace(list(events)), policy=FixedModePolicy(mode))


class TestIdleGating(object):
    def test_cp_routers_gate_when_idle(self):
        config = SimulationConfig(technique=CP, seed=1, faults=NO_FAULTS)
        net = Network(config, Trace([]))
        net.run(CP.idle_gate_threshold + 50)
        gated = sum(1 for r in net.routers if r.gating.state is PowerState.GATED)
        assert gated == len(net.routers)

    def test_cp_wakes_on_traffic_and_delivers(self):
        config = SimulationConfig(technique=CP, seed=1, faults=NO_FAULTS)
        events = [TraceEvent(CP.idle_gate_threshold + 100, 0, 9, 4)]
        net = Network(config, Trace(events))
        net.run_to_completion(4000)
        assert net.stats.packets_completed == 1
        assert any(r.gating.wake_count > 0 for r in net.routers)

    def test_cp_gating_saves_static_energy(self):
        config = SimulationConfig(technique=CP, seed=1, faults=NO_FAULTS)
        idle = Network(config, Trace([]))
        idle.run(2000)
        from dataclasses import replace

        no_gate = replace(CP, power_gating=False, idle_gate_threshold=10**9)
        busy_cfg = SimulationConfig(technique=no_gate, seed=1, faults=NO_FAULTS)
        awake = Network(busy_cfg, Trace([]))
        awake.run(2000)
        assert idle.accountant.total_static_pj() < awake.accountant.total_static_pj()


class TestStressRelaxingBypass:
    def test_mode0_gates_but_traffic_flows(self):
        events = [TraceEvent(500 + i * 40, 0, 9, 4) for i in range(10)]
        net = intellinoc_network(events, mode=0)
        net.run_to_completion(8000)
        assert net.stats.packets_completed == net.stats.packets_injected
        assert net.stats.bypass_traversals > 0

    def test_gating_saves_power_vs_baseline(self):
        from repro.config import SECDED_BASELINE

        events = [TraceEvent(500 + i * 100, 0, 9, 4) for i in range(5)]
        gated = intellinoc_network(events, mode=0)
        baseline_cfg = SimulationConfig(
            technique=SECDED_BASELINE, seed=1, faults=NO_FAULTS
        )
        baseline = Network(baseline_cfg, Trace(list(events)))
        gated.run(4000)
        baseline.run(4000)
        assert (
            gated.accountant.total_static_pj()
            < 0.6 * baseline.accountant.total_static_pj()
        )

    def test_idle_gating_engages_without_mode0(self):
        """IntelliNoC gates idle routers even in mode 1 (Section 1)."""
        net = intellinoc_network([], mode=1)
        net.run(1000)
        assert all(r.gating.state is PowerState.GATED for r in net.routers)

    def test_bypass_fast_at_light_load(self):
        """At sporadic loads the bypass beats the 4-stage pipeline: no
        buffering, no VA/SA — the paper's no-wakeup-latency benefit."""
        from repro.config import SECDED_BASELINE

        events = [TraceEvent(500 + i * 100, i % 8, 56 + (i % 8), 4) for i in range(10)]
        gated = intellinoc_network(events, mode=0)
        baseline_cfg = SimulationConfig(
            technique=SECDED_BASELINE, seed=1, faults=NO_FAULTS
        )
        baseline = Network(baseline_cfg, Trace(list(events)))
        gated.run_to_completion(30_000)
        baseline.run_to_completion(30_000)
        assert gated.stats.average_latency < baseline.stats.average_latency

    def test_watchdog_protects_crossing_flows(self):
        """The single-flit-per-cycle bypass serializes flows a powered
        router would switch in parallel; the congestion watchdog wakes the
        crossing-point router so latency stays close to the powered run."""
        # Flow A: along row 3 (24 -> 31); flow B: up column 3 (3 -> 59).
        # Both transit router 27.
        events = []
        for i in range(60):
            events.append(TraceEvent(400 + i * 2, 24, 31, 4))
            events.append(TraceEvent(400 + i * 2, 3, 59, 4))
        gated = intellinoc_network(events, mode=0, time_step=100)
        powered = intellinoc_network(events, mode=1, time_step=100)
        gated.run_to_completion(60_000)
        powered.run_to_completion(60_000)
        assert gated.stats.wakeups > 0
        assert gated.stats.average_latency < 1.5 * powered.stats.average_latency

    def test_bypass_handles_local_injection_without_wakeup(self):
        events = [TraceEvent(500, 0, 9, 4)]
        net = intellinoc_network(events, mode=0)
        net.run_to_completion(8000)
        source_router = net.routers[0]
        assert net.stats.packets_completed == 1
        # The source router never woke for the injection.
        assert source_router.gating.state is PowerState.GATED

    def test_draining_precedes_gating_under_load(self):
        """Mode 0 requested mid-burst: router drains, never drops flits."""
        events = [TraceEvent(i, 0, 9, 4) for i in range(0, 160, 8)]
        net = intellinoc_network(events, mode=0, time_step=100)
        net.run_to_completion(20_000)
        assert net.stats.packets_completed == net.stats.packets_injected

    def test_sustained_overload_completes(self):
        # Crossing flows through router 27, starting after mode 0 engaged.
        events = []
        for i in range(100):
            events.append(TraceEvent(150 + i, 24, 31, 4))
            events.append(TraceEvent(150 + i, 3, 59, 4))
        net = intellinoc_network(events, mode=0, time_step=100)
        net.run_to_completion(80_000)
        assert net.stats.packets_completed == net.stats.packets_injected
        assert net.stats.wakeups > 0


class TestIdleRouterSkip:
    def test_zero_capacity_channels_keep_the_watchdog_firing(self):
        """One buffer stage shared by an MFAC's two links leaves each link
        none: capacity 0, so the channel reads congested while empty and
        the bypass watchdog fires on a router with nothing to do.  Such a
        router is never skipped — the count below is the pre-skip one
        (every router, every cycle)."""
        from dataclasses import replace

        noc = replace(INTELLINOC.noc, width=3, height=3, channel_buffer_depth=1)
        config = SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=7)
        net = Network(config, Trace([]))
        assert all(c.capacity == 0 and c.congested for c in net.channels)
        assert all(r.congested_when_empty for r in net.routers)
        for router in net.routers:
            router.apply_mode(0, 0)
        net.run(30)
        assert net.stats.wakeups == 30 * len(net.routers)
        assert all(r.mode == 1 for r in net.routers)  # watchdog left mode 0
        assert all(r.gating.state is PowerState.GATED for r in net.routers)

    def test_skipped_visit_would_have_been_a_no_op(self):
        """Every cycle, for every gated router with nothing queued toward
        it and no local flit (found by scanning, not from the counters the
        loop reads): the watchdog is quiet, the bypass moves nothing, and
        its arbiter's pointer stays where it was.  Those are the only
        gated routers the loop leaves unvisited."""
        events = [TraceEvent(c, c % 64, (c * 7 + 9) % 64, 4) for c in range(0, 600, 3)]
        events = [e for e in events if e.src != e.dst]
        net = intellinoc_network(events, mode=0)
        local_sources = dict(net._live_routers)
        visited = set()
        for router in net.routers:
            def visit(cycle, sources, rid=router.id, step=router.bypass_step):
                visited.add(rid)
                return step(cycle, sources)

            router.bypass_step = visit
        skipped = 0
        for _ in range(900):
            gated = [r for r in net.routers if r.gating.state is PowerState.GATED]
            quiet = [
                r
                for r in gated
                if not any(c.queue for c in r.incoming.values())
                and all(s.is_empty() for _, s in local_sources[r])
            ]
            for router in quiet:
                pointer = router._bypass_arbiter.peek()
                assert not router.bypass_overloaded()
                assert router.bypass_step(net.cycle, local_sources[router]) is False
                assert router._bypass_arbiter.peek() == pointer
            visited.clear()
            net.step()
            unvisited = {r.id for r in gated} - visited
            assert unvisited <= {r.id for r in quiet}
            skipped += len(unvisited)
        assert skipped > 0 and net.stats.bypass_traversals > 0


class TestBstUnderGating:
    def test_wormhole_state_survives_power_off(self):
        """A packet whose head passes powered and body passes gated relies
        on its input VC's record (the paper's BST entry) outliving the
        power-off; delivery must still be complete and in order."""
        # Long packet stream through the middle of the mesh.
        events = [TraceEvent(i * 6, 16, 23, 4) for i in range(20)]
        net = intellinoc_network(events, mode=0, time_step=50)
        net.run_to_completion(20_000)
        assert net.stats.packets_completed == net.stats.packets_injected
        assert net.stats.corrupted_packets_delivered == 0


def gated_torus(events):
    """4x4 torus, every router in mode 0 (gated, bypassing) from cycle 50."""
    noc = replace(INTELLINOC.noc, width=4, height=4, topology="torus")
    technique = replace(INTELLINOC, noc=noc).with_rl(time_step=50)
    config = SimulationConfig(technique=technique, seed=1, faults=NO_FAULTS)
    return Network(config, Trace(list(events)), policy=FixedModePolicy(0))


class TestBypassDatelineClass:
    """Router 3 sits at x = 3: its EAST channel is the wrap link to router
    0, the dateline of row 0, so an eastbound head moves to VC class 1
    there.  A head from node 3 enters the bypass by local injection, one
    from node 2 by forwarding (x = 2 to x = 0 ties and goes east)."""

    @pytest.mark.parametrize("src", [3, 2], ids=["injected", "forwarded"])
    def test_refused_head_keeps_its_class_and_claims_nothing(self, src):
        net = gated_torus([TraceEvent(60, src, 0, 4)])
        net.run(55)
        assert all(r.gating.state is PowerState.GATED for r in net.routers)
        net.find_channel(3, Direction.EAST).set_down(True)
        net.run(40)
        packet = net.sources[src].current_packet() or next(
            e[0].packet for e in net.find_channel(2, Direction.EAST).queue
        )
        assert packet.vc_class == 0
        assert all(
            vc.owner is None for vc in net.routers[0].input_ports[Direction.WEST].vcs
        )

    def test_bypassed_head_keeps_its_dateline_class(self):
        net = gated_torus([TraceEvent(60, 3, 0, 4)])
        port = net.routers[0].input_ports[Direction.WEST]
        allowed = net.topology.allowed_vcs(1, len(port.vcs))
        following = set()
        for _ in range(300):
            net.step()
            for vci, vc in enumerate(port.vcs):
                if vc.owner is not None:
                    assert vci in allowed and vc.owner.vc_class == 1
                if vc.state is VcState.ACTIVE:
                    # The head ejected; body and tail follow the record.
                    assert (vc.route, vc.out_vc) == (Direction.LOCAL, 0)
                    following.add(vci)
        assert following
        assert net.routers[0].gating.state is PowerState.GATED
        assert net.stats.packets_completed == net.stats.packets_injected == 1
        assert all(vc.owner is None and vc.state is VcState.IDLE for vc in port.vcs)
