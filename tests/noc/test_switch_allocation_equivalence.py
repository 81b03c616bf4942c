"""The mask-based switch allocator against a list-based reference.

`Router._switch_allocate` arbitrates over int request masks.  The
reference below is the separable allocator written the slow, obvious way
— lists of request lines and `RoundRobinArbiter.grant` — and the property
is that, from any set of ACTIVE input VCs, both grant the same (input
port, VC, output) triples in the same order and leave every arbiter
pointing at the same requester.  No golden hash is involved.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EB, INTELLINOC, SECDED_BASELINE
from repro.noc.flit import Packet
from repro.noc.routing import Direction
from repro.noc.vc import VcState
from tests.conftest import make_network

CYCLE = 100
INTERIOR, CORNER = 9, 0  # routers of the 8x8 mesh: four neighbours / two


def is_ready(router, vc, cycle):
    """SA eligibility of one ACTIVE VC (stage delay + output can take it)."""
    if not vc.queue:
        return False
    flit, enq = vc.queue[0]
    if cycle < enq + (router._head_delay if flit.is_head else router._body_delay):
        return False
    if vc.route in router._ejection_ports:
        return True
    channel = router.outgoing.get(vc.route)
    if channel is None or not channel.can_accept(cycle):
        return False
    if channel.is_wire:
        down_vc = router.downstream_ports[vc.route].vcs[vc.out_vc]
        in_flight = sum(1 for e in channel.queue if e[0].vc == vc.out_vc)
        return down_vc.free_slots > in_flight
    return True


def reference_switch_allocate(router, cycle, active, port_arbiters, output_arbiters):
    """Separable round-robin allocation over lists of request lines."""
    by_port = {}
    for port, vci, vc in active:
        by_port.setdefault(port.direction, []).append((vci, vc))
    nominations = {}
    for direction, candidates in by_port.items():
        lines = [False] * router.noc.num_vcs
        for vci, vc in candidates:
            lines[vci] = is_ready(router, vc, cycle)
        vci = port_arbiters[direction].grant(lines)
        if vci is not None:
            route = router.input_ports[direction].vcs[vci].route
            nominations.setdefault(route, []).append((direction, vci))
    grants = []
    for route, nominees in nominations.items():
        for _ in range(router.noc.subnetworks):
            lines = [any(d == p for d, _ in nominees) for p in range(router.num_ports)]
            winner = output_arbiters[route].grant(lines)
            if winner is None:
                break
            grants.append((winner, dict(nominees)[winner], route))
            nominees = [n for n in nominees if n[0] != winner]
    return grants


def vc_contents(num_vcs):
    """What one input VC holds: nothing, or an ACTIVE worm's front flit."""
    return st.none() | st.fixed_dictionaries({
        "is_head": st.booleans(),
        "age": st.integers(0, 3),  # cycles since the front flit was buffered
        "route": st.sampled_from(list(Direction)),
        "out_vc": st.integers(0, num_vcs - 1),
    })


def scenes(num_ports=5, num_vcs=4, va_grants=True):
    """A router's input VCs, arbiter pointers and stalled outputs.

    ``va_granted`` are slots the VA stage granted this cycle: the pipeline
    appends them to the scan-ordered ACTIVE list, in grant order.
    """
    slots = num_ports * num_vcs
    return st.fixed_dictionaries({
        "vcs": st.lists(vc_contents(num_vcs), min_size=slots, max_size=slots),
        "va_granted": (
            st.lists(st.integers(0, slots - 1), unique=True, max_size=4)
            if va_grants
            else st.just([])
        ),
        "port_pointers": st.lists(
            st.integers(0, num_vcs - 1), min_size=num_ports, max_size=num_ports
        ),
        "output_pointers": st.lists(
            st.integers(0, num_ports - 1), min_size=num_ports, max_size=num_ports
        ),
        "blocked_outputs": st.sets(st.sampled_from(list(Direction)[1:])),
    })


def stage(router, scene, cycle):
    """Put *scene* into the router's input VCs and arbiters; returns the
    ACTIVE slots in the scene's order."""
    for (port, vci, vc), contents in zip(router._vc_slots, scene["vcs"]):
        vc.queue.clear()
        vc.close_packet()
        vc.owner = None
        if contents is None:
            continue
        packet = Packet.create(1, 2, 2, cycle)
        head, tail = packet.make_flits()
        vc.queue.append((head if contents["is_head"] else tail, cycle - contents["age"]))
        vc.owner = packet
        vc.state = VcState.ACTIVE
        vc.route = contents["route"]
        vc.out_vc = contents["out_vc"]
    for port, pointer in zip(router.input_ports, scene["port_pointers"]):
        router._port_arbiters[port]._next = pointer
    for port, pointer in zip(router.input_ports, scene["output_pointers"]):
        router._output_arbiters[port]._next = pointer
    for direction, channel in router.outgoing.items():
        channel.set_down(direction in scene["blocked_outputs"])
    tail = scene["va_granted"]
    order = [i for i in range(len(router._vc_slots)) if i not in tail] + tail
    slots = router._vc_slots
    return [slots[i] for i in order if slots[i][2].state is VcState.ACTIVE]


def check_equivalence(router, active):
    """Run both allocators over the ACTIVE slots *active*, assert that they
    agree, and return the grants."""
    port_arbiters = copy.deepcopy(router._port_arbiters)
    output_arbiters = copy.deepcopy(router._output_arbiters)
    expected = reference_switch_allocate(
        router, CYCLE, active, port_arbiters, output_arbiters
    )
    granted = []
    router._switch_traverse = lambda slot, route, cycle: granted.append(
        (slot[0].direction, slot[1], route)
    )
    router._switch_allocate(CYCLE, active)
    assert granted == expected
    for port in router.input_ports:
        assert router._port_arbiters[port].peek() == port_arbiters[port].peek()
        assert router._output_arbiters[port].peek() == output_arbiters[port].peek()
    return granted


@pytest.mark.parametrize("rid", [INTERIOR, CORNER])
@pytest.mark.parametrize(
    "technique",
    [INTELLINOC, EB, SECDED_BASELINE],
    ids=["mfac-1-subnetwork", "eb-2-subnetworks", "wire-1-subnetwork"],
)
def test_same_grants_in_the_same_order_and_same_pointers(technique, rid):
    assert (technique is EB) == (technique.noc.subnetworks == 2)
    # One router for every example: `stage` resets all the state it reads.
    router = make_network(technique).routers[rid]

    @settings(max_examples=60, deadline=None)
    @given(scene=scenes())
    def check(scene):
        check_equivalence(router, stage(router, scene, CYCLE))

    check()


@settings(max_examples=60, deadline=None)
@given(scene=scenes(va_grants=False), dead=st.sampled_from(list(Direction)[1:]))
def test_degraded_router_with_a_dead_output(scene, dead):
    """Killing an output through `Network.fail_link` drops every worm
    committed to it, due or not, and releases its VC; the allocators then
    agree over the survivors and never grant the dead output.  (No VA
    grants here: route computation never picks a dead output, and a kill
    sends a head already waiting on one back to route computation.)"""
    net = make_network(INTELLINOC)
    router = net.routers[INTERIOR]
    active = stage(router, scene, CYCLE)
    doomed = [(vc.owner, vc) for _, _, vc in active if vc.route == dead]
    assert net.fail_link(INTERIOR, int(dead), CYCLE)
    assert not net._pending_drops
    assert net.stats.packets_dropped_dead_link == len(doomed)
    for packet, vc in doomed:
        assert packet.dropped_reason == "dead_link"
        assert vc.owner is None and vc.state is VcState.IDLE and not vc.queue
    survivors = [slot for slot in active if slot[2].state is VcState.ACTIVE]
    assert len(survivors) == len(active) - len(doomed)
    granted = check_equivalence(router, survivors)
    assert all(route != dead for _, _, route in granted)
