"""The gated router's fused walk and head-routing memos against references.

`Router.bypass_step` counts congested incoming channels and raises its
request lines in one walk, and arbitrates over an int mask.  The reference
below does it the slow, obvious way — `bypass_overloaded()`, then a list
of request lines through `RoundRobinArbiter.grant` — and the property is
that, from any state of the incoming queues and local sources, both reach
the same verdict, try the same inputs in the same order and leave the
arbiter pointing at the same requester.  The memos `compute_route` and
`_claim_downstream_vc` keep are compared with from-scratch answers for
every key on every registered fabric.  No golden hash is involved.
"""

import copy
import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import INTELLINOC
from repro.noc.adaptive_routing import select_output
from repro.noc.flit import Packet
from repro.noc.power_gating import PowerState
from repro.noc.topology import DatelineTopology
from tests.conftest import make_network
from tests.noc.test_topology_properties import FABRIC_OVERRIDES

CYCLE = 100
SEND_CLOCK = itertools.count()


def on_fabric(**noc_overrides):
    return replace(INTELLINOC, noc=replace(INTELLINOC.noc, **noc_overrides))


# --- the fused walk -------------------------------------------------------------


def reference_bypass_step(router, cycle, sources, arbiter, moves):
    """(verdict, inputs tried in order): watchdog first, then list-based
    request lines granted round-robin until an input moves a flit."""
    if router.bypass_overloaded():
        return None, []
    lines = [False] * router.num_ports
    for port, channel in router.incoming.items():
        queue = channel.queue
        lines[port] = bool(queue) and queue[0][1] <= cycle and not channel.down
    for port, source in sources:
        if source.peek() is not None:
            lines[port] = True
    tried = []
    while any(lines):
        winner = arbiter.grant(lines)
        lines[winner] = False
        tried.append(winner)
        if moves[winner]:
            return True, tried
    return False, tried


def channel_states():
    """One incoming channel: how full against what capacity (zero-capacity
    channels included), whether its oldest flit is due, whether it is down."""
    return st.fixed_dictionaries({
        "capacity": st.sampled_from([0, 1, 2, 8]),
        "flits": st.integers(0, 3),
        "head_due_in": st.integers(-2, 2),  # <= 0: due
        "down": st.booleans(),
    })


def scenes(num_ports):
    return st.fixed_dictionaries({
        "channels": st.lists(channel_states(), min_size=4, max_size=4),
        "local_packets": st.lists(st.integers(0, 2), min_size=4, max_size=4),
        "pointer": st.integers(0, num_ports - 1),
        # Whether the input at each port, once granted, moves a flit.
        "moves": st.lists(st.booleans(), min_size=num_ports, max_size=num_ports),
    })


def stage(network, router, scene):
    """Put *scene* into the router's incoming channels, local sources and
    bypass arbiter (every piece of state the walk reads is reset)."""
    for channel, state in zip(router.incoming.values(), scene["channels"]):
        while channel.queue:
            channel.dequeue(channel.queue[0])
        channel.set_down(False)
        channel.capacity = 8  # room for the sends below; the scene's follows
        flits = Packet.create(1, 2, 4, CYCLE).make_flits()
        for age, flit in enumerate(flits[: state["flits"]]):
            channel.send(flit, next(SEND_CLOCK))  # a fresh cycle's bandwidth
            channel.queue[-1][1] = CYCLE + state["head_due_in"] + age
        channel.capacity = state["capacity"]
        channel.set_down(state["down"])
    sources = dict(network._live_routers)[router]
    for (_, source), packets in zip(sources, scene["local_packets"]):
        source.drain_queued()
        source.discard_packet(source.current_packet())
        for _ in range(packets):
            source.enqueue(Packet.create(source.node, (source.node + 1) % 4, 4, CYCLE))
    router._bypass_arbiter._next = scene["pointer"]
    return sources


def check_walk(network, router, scene):
    sources = stage(network, router, scene)
    unopened = [source for _, source in sources if not source.is_empty()]
    arbiter = copy.deepcopy(router._bypass_arbiter)
    moves = scene["moves"]
    tried = []

    def forward(in_dir, channel, cycle):
        assert channel is router.incoming[in_dir] and cycle == CYCLE
        tried.append(in_dir)
        return moves[in_dir]

    def inject(cycle, source, port):
        assert (port, source) in sources and cycle == CYCLE
        tried.append(port)
        return moves[port]

    router._bypass_forward, router._bypass_inject = forward, inject
    verdict = router.bypass_step(CYCLE, sources)
    if verdict is None:
        # The watchdog fired: nothing arbitrated, no source touched.
        assert tried == [] and router._bypass_arbiter.peek() == scene["pointer"]
        assert not any(source._current_flits for source in unopened)
    expected = reference_bypass_step(router, CYCLE, sources, arbiter, moves)
    assert (verdict, tried) == expected
    assert router._bypass_arbiter.peek() == arbiter.peek()
    return verdict


@pytest.mark.parametrize(
    "fabric, rid",
    [
        (dict(), 9),  # 8x8 mesh, interior: four incoming channels, one source
        (dict(), 0),  # corner: two incoming channels
        (dict(width=4, height=4, topology="torus"), 5),
        (dict(width=4, height=4, topology="cmesh", concentration=4), 3),  # 4 sources
    ],
    ids=["mesh-interior", "mesh-corner", "torus", "cmesh-4-locals"],
)
def test_same_verdict_same_inputs_tried_and_same_pointer(fabric, rid):
    # One router for every example: `stage` resets all the state it reads.
    network = make_network(on_fabric(**fabric))
    router = network.routers[rid]
    router.apply_mode(0, 0)
    assert router.gating.state is PowerState.GATED
    verdicts = []
    quiet = {"capacity": 8, "flits": 0, "head_due_in": 0, "down": False}
    full = dict(quiet, capacity=0)  # congested while empty
    due = dict(quiet, flits=1)

    def scene(channels, moves):
        return {"channels": channels, "local_packets": [0] * 4, "pointer": 0,
                "moves": [moves] * router.num_ports}

    # One scene per verdict, so that every run reaches all three whatever
    # the draw: two congested inputs fire the watchdog (None); one due
    # flit either moves (True) or does not (False).
    @settings(max_examples=150, deadline=None)
    @example(scene=scene([full] * 4, True))
    @example(scene=scene([due] + [quiet] * 3, True))
    @example(scene=scene([due] + [quiet] * 3, False))
    @given(scene=scenes(router.num_ports))
    def check(scene):
        verdicts.append(check_walk(network, router, scene))

    check()
    assert {None, True, False} <= set(verdicts)  # every outcome was reached


# --- head-routing memos ------------------------------------------------------------

FABRICS = {
    **FABRIC_OVERRIDES,
    "mesh-west-first": dict(width=4, height=4, routing="west_first"),
}


def live_answer(network, router, dst):
    return network.topology.live_candidates(
        router.id, dst, network.dead_routers, network.dead_links
    )


def route_from_scratch(network, router, dst):
    """`compute_route` as it reads without its memo."""
    candidates = live_answer(network, router, dst)
    if not candidates:
        return None
    return select_output(
        candidates,
        free_slots=lambda d: sum(vc.free_slots for vc in router.downstream_ports[d].vcs),
    )


def check_route_memo(network):
    nodes = range(network.topology.num_nodes)
    for router in network.routers:
        for _ in range(2):  # a miss, then (at most) a hit
            for dst in nodes:
                assert router.compute_route(dst) == route_from_scratch(
                    network, router, dst
                )


def check_vc_class_memo(network):
    topology, num_vcs = network.topology, network.technique.noc.num_vcs
    for router in network.routers:
        for route, down_port in router.downstream_ports.items():
            for vc_class in range(4):
                for _ in range(2):  # a miss, then a hit
                    packet = Packet.create(0, 1, 4, 0)
                    packet.vc_class = vc_class
                    out_vc = router._claim_downstream_vc(route, packet)
                    assert down_port.vcs[out_vc].owner is packet
                    down_port.unclaim(out_vc)
                    expected = topology.next_vc_class(router.id, route, vc_class)
                    if not isinstance(topology, DatelineTopology):
                        assert expected == 0  # a classless fabric's one class
                    assert packet.vc_class == expected
                    assert out_vc == topology.allowed_vcs(expected, num_vcs)[0]
                    assert router._vc_class_memo[route, vc_class] == (
                        expected, topology.allowed_vcs(expected, num_vcs)
                    )
        assert router._vc_class_memo  # every fabric claims through it


def route_memos(network):
    return [dict(router._route_memo) for router in network.routers]


def check_memos_hold_live_answers(network):
    nodes = range(network.topology.num_nodes)
    for router in network.routers:
        assert router._route_memo == {
            dst: live_answer(network, router, dst) for dst in nodes
        }


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_memos_equal_from_scratch_answers_before_and_after_a_kill(fabric):
    """Every destination's live candidates are memoised, and a link kill,
    then a router kill, replaces stale answers with live ones."""
    network = make_network(on_fabric(**FABRICS[fabric]))
    topology = network.topology
    channels = topology.channels()
    src, direction, _ = channels[len(channels) // 2]
    kills = [
        lambda: network.fail_link(src, direction, cycle=5),
        lambda: network.fail_router(topology.num_routers // 2 + 1, cycle=6),
    ]
    check_route_memo(network)
    check_vc_class_memo(network)
    check_memos_hold_live_answers(network)
    for kill in kills:
        memos = route_memos(network)
        kill()
        check_route_memo(network)
        check_vc_class_memo(network)
        check_memos_hold_live_answers(network)
        assert route_memos(network) != memos  # the kill cut some route
