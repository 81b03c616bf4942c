"""Graceful degradation under mid-run structural failures.

A dead router or link must never wedge the run or silently swallow
packets: adaptive (west-first) routing detours around the damage, while
deterministic X-Y routing drops the affected packets *with accounting*,
so ``run_to_completion`` still terminates and every injected packet ends
up delivered, dropped-with-reason, or refused.
"""

from dataclasses import replace

import pytest

from repro.analysis.sanitizer import NocSanitizer
from repro.config import SECDED_BASELINE, FaultConfig, SimulationConfig
from repro.faults.scenario import FaultScenario, RouterFailure
from repro.noc.network import Network
from repro.noc.routing import Direction
from repro.noc.vc import VcState
from repro.traffic.trace import Trace, TraceEvent

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)

# On the 4x4 mesh (row-major ids), router 5 = (x1, y1) is interior.
# X-Y routes 4 -> 9 go east through 5; west-first can detour south via 8.
DEAD = 5
FLOW = (4, 9)


def make_network(routing, events, scenario=None, sanitizer=None, seed=7):
    noc = replace(SECDED_BASELINE.noc, width=4, height=4, routing=routing)
    tech = replace(SECDED_BASELINE, noc=noc)
    config = SimulationConfig(technique=tech, seed=seed, faults=NO_FAULTS)
    return Network(config, Trace(list(events)), scenario=scenario,
                   sanitizer=sanitizer)


def flow_events(n=12, stride=10, flow=FLOW):
    src, dst = flow
    return [TraceEvent(c * stride, src, dst, 4) for c in range(n)]


def kill_at(cycle, router=DEAD):
    return FaultScenario(
        name="kill", events=(RouterFailure(cycle=cycle, router=router),)
    )


def assert_accounting_balances(net):
    s = net.stats
    assert s.packets_resolved == s.packets_injected
    assert (
        s.packets_completed + s.packets_dropped + s.packets_undeliverable
        == s.packets_injected
    )


class TestRouterDeath:
    def test_west_first_routes_around_a_dead_router(self):
        net = make_network("west_first", flow_events(), scenario=kill_at(0))
        net.run_to_completion(20_000)
        assert net.routers[DEAD].dead
        assert net.stats.packets_completed == len(flow_events())
        assert net.stats.packets_dropped == 0
        assert_accounting_balances(net)

    def test_xy_drops_with_accounting_instead_of_wedging(self):
        events = flow_events()
        net = make_network("xy", events, scenario=kill_at(0))
        net.run_to_completion(20_000)  # must terminate, not hit the cap
        assert net.stats.packets_completed == 0
        assert net.stats.packets_dropped_dead_router == len(events)
        assert_accounting_balances(net)

    def test_mid_flight_death_is_sanitizer_clean(self, tmp_path):
        """Kill the router while traffic crosses it: whatever was inside
        is dropped with a reason, everything else detours, NoCSan agrees."""
        san = NocSanitizer(interval=1, watchdog_cycles=10_000,
                           snapshot_dir=tmp_path / "san")
        events = flow_events(n=40, stride=5)
        net = make_network("west_first", events, scenario=kill_at(57),
                           sanitizer=san)
        net.run_to_completion(20_000)
        assert net.stats.packets_completed > 0
        assert_accounting_balances(net)
        assert san.violations_seen == 0
        # time-to-recover was measured for the kill
        assert net.stats.recovery_cycles

    def test_dead_endpoints_refuse_injection(self):
        events = (
            [TraceEvent(c, 0, DEAD, 4) for c in range(20, 60, 10)]
            + [TraceEvent(c, DEAD, 15, 4) for c in range(25, 65, 10)]
        )
        net = make_network("xy", events, scenario=kill_at(0))
        net.run_to_completion(20_000)
        assert net.stats.packets_completed == 0
        assert net.stats.packets_undeliverable == len(events)
        assert_accounting_balances(net)

    def test_fail_router_is_idempotent(self):
        net = make_network("xy", [])
        net.fail_router(DEAD, 0)
        net.fail_router(DEAD, 5)
        assert net.dead_routers == {DEAD: 0}
        assert len(net.dead_links) == 0  # router kill is not a link kill


class TestLinkDeath:
    def test_dead_link_drops_through_traffic_with_accounting(self):
        events = flow_events(flow=(4, 6))  # X-Y: 4 -> 5 -> 6, all east
        net = make_network("xy", events)
        assert net.fail_link(DEAD, int(Direction.EAST), cycle=0)
        net.run_to_completion(20_000)
        assert net.stats.packets_completed == 0
        assert net.stats.packets_dropped_dead_link == len(events)
        assert_accounting_balances(net)

    def test_west_first_detours_around_a_dead_link(self):
        net = make_network("west_first", flow_events())
        assert net.fail_link(4, int(Direction.EAST), cycle=0)
        net.run_to_completion(20_000)
        assert net.stats.packets_completed == len(flow_events())
        assert net.stats.packets_dropped == 0
        assert_accounting_balances(net)

    def test_a_head_waiting_on_an_output_that_dies_is_rerouted(self):
        """The kill sends a head waiting for VC allocation on the dead
        output back through route computation: west-first takes the other
        productive output instead of committing to the dead one."""
        net = make_network("west_first", flow_events(n=1))
        slots = net.routers[FLOW[0]]._vc_slots
        waiting = []
        while not waiting and net.cycle < 50:
            net.step()
            waiting = [vc for *_, vc in slots if vc.state is VcState.WAITING_VA]
        (vc,) = waiting
        assert net.fail_link(FLOW[0], int(vc.route), cycle=net.cycle)
        assert vc.state is VcState.ROUTING
        net.run_to_completion(20_000)
        assert net.stats.packets_completed == 1
        assert net.stats.packets_dropped == 0
        assert_accounting_balances(net)

    def test_fail_link_reports_missing_or_repeated_kills(self):
        net = make_network("xy", [])
        assert net.fail_link(DEAD, int(Direction.EAST), cycle=0)
        assert not net.fail_link(DEAD, int(Direction.EAST), cycle=1)  # repeat
        assert not net.fail_link(0, int(Direction.WEST), cycle=0)  # no channel
        assert net.dead_links == {(DEAD, int(Direction.EAST)): 0}


class TestDegradedTermination:
    @pytest.mark.parametrize("routing", ["xy", "west_first"])
    def test_run_to_completion_terminates_under_damage(self, routing):
        """The resolved-vs-injected termination condition: a run with
        drops must still detect completion and stop early."""
        events = flow_events(n=8)
        net = make_network(routing, events, scenario=kill_at(0))
        cap = 50_000
        net.run_to_completion(cap)
        assert net.cycle < cap
        assert_accounting_balances(net)
