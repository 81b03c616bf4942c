"""A drop's reason means the same whatever the power state of the router
that files it (docs/fault_scenarios.md, "Nothing disappears silently").

`dead_router` / `dead_link` name the failure that cut a head's route, and
`undeliverable` is the network interface's refusal of a packet with a dead
endpoint.  A head injected through a gated router's bypass is routed, and
dropped, the way a forwarded or a buffered one is (`Router._bypass_route_for`),
and refused by the same NI protocol as at a powered router
(`SourceQueue.vc_for`).
"""

from dataclasses import replace

import pytest

from repro.config import INTELLINOC, FaultConfig, SimulationConfig
from repro.control.policies import ModePolicy
from repro.noc.network import Network
from repro.noc.power_gating import PowerState
from repro.noc.routing import Direction
from repro.telemetry import Telemetry
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.traffic.trace import Trace, TraceEvent
from repro.utils.rng import make_rng


class AllGated(ModePolicy):
    """Every router in mode 0 (gated, bypassing) at each control step."""

    def control_step(self, observations, cycle):
        return [0] * len(observations)


def gated_mesh(events):
    """4x4 X-Y mesh, every router gated from cycle 50, no transient faults."""
    noc = replace(INTELLINOC.noc, width=4, height=4)
    technique = replace(INTELLINOC, noc=noc).with_rl(time_step=50)
    config = SimulationConfig(
        technique=technique, seed=1, faults=FaultConfig(base_bit_error_rate=0.0)
    )
    tel = Telemetry(trace_stride=10**9)  # drops are recorded unstrided
    return Network(config, Trace(list(events)), policy=AllGated(), telemetry=tel), tel


def drop_reasons(tel):
    return [e["reason"] for e in tel.events_of("drop")]


class TestBypassInjectionDrops:
    def test_a_cut_route_is_filed_for_the_failure_that_cut_it(self):
        """Node 5's head to node 6 has one X-Y output, EAST, and that link
        is dead: the gated source drops it as `dead_link`, as a powered
        router's route computation would."""
        net, tel = gated_mesh([TraceEvent(60, 5, 6, 4)])
        net.run(55)
        assert all(r.gating.state is PowerState.GATED for r in net.routers)
        net.fail_link(5, Direction.EAST, cycle=55)
        net.run(20)
        assert net.routers[5].gating.state is PowerState.GATED
        assert drop_reasons(tel) == ["dead_link"]
        stats = net.stats
        assert stats.packets_dropped_dead_link == 1
        assert stats.packets_undeliverable == 0
        assert stats.packets_resolved == stats.packets_injected == 1
        assert net.sources[5].flits_popped == 0 and net.sources[5].is_empty()

    def test_a_head_bound_for_a_dead_router_is_refused_at_the_source(self):
        """Node 4 sends two packets along row 1; router 7 dies while the
        second waits behind the first.  Its route's first hop is live, yet
        the gated source refuses it (`undeliverable`) instead of sending
        it to be dropped on the way, as a powered NI would."""
        net, tel = gated_mesh([TraceEvent(60, 4, 5, 4), TraceEvent(60, 4, 7, 4)])
        net.run(62)
        assert net.sources[4].flits_popped == 2  # the first packet is going out
        net.fail_router(7, cycle=62)
        net.run(40)
        assert net.routers[4].gating.state is PowerState.GATED
        assert drop_reasons(tel) == ["undeliverable"]
        stats = net.stats
        assert stats.packets_undeliverable == 1
        assert stats.packets_dropped == 0
        assert stats.packets_completed == 1
        assert net.sources[4].flits_popped == 4  # the refused head never left
        assert net.sources[4].is_empty()


@pytest.mark.parametrize("topology", ["mesh", "torus"])
@pytest.mark.parametrize("pack", ["aging-cliff", "hotspot-meltdown", "link-rot"])
def test_every_undeliverable_drop_has_a_dead_endpoint(pack, topology):
    """The law over whole runs: IntelliNoC gates and bypasses on its own
    under each kill pack, and every `undeliverable` drop names a packet
    whose source or destination router was dead when it was filed."""
    noc = replace(
        INTELLINOC.noc, width=4, height=4, topology=topology, fault_scenario=pack
    )
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, 4000, 0.02,
        noc.flits_per_packet, make_rng(7, "drop-reasons"),
    )
    config = SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=7)
    tel = Telemetry(trace_stride=10**9)
    net = Network(config, trace, telemetry=tel)
    net.run_to_completion(50_000)
    stats = net.stats
    assert stats.packets_dropped > 0 and stats.bypass_traversals > 0
    assert stats.packets_resolved == stats.packets_injected
    assert tel.dropped_events == 0

    def dead_at(node, cycle):
        killed = net.dead_routers.get(net.topology.router_of_node(node))
        return killed is not None and killed <= cycle

    undeliverable = [e for e in tel.events_of("drop") if e["reason"] == "undeliverable"]
    assert len(undeliverable) == stats.packets_undeliverable
    for event in undeliverable:
        assert dead_at(event["src"], event["cycle"]) or dead_at(
            event["dst"], event["cycle"]
        ), event
