"""Property-style invariants every registered topology must satisfy.

These tests run against *every* fabric in the registry (parameterized by
``NocConfig``), so a newly registered topology is covered automatically:

* structural consistency — channels reference real routers/ports, every
  channel has a reverse channel, node<->router maps roundtrip;
* routing — following candidates always makes progress and reaches the
  destination in exactly ``distance()`` hops;
* deadlock freedom — the extended channel-dependency graph that routing
  and the VC classes induce is acyclic, fault-free and after any failure
  set, and every VC claim a run makes (the bypass's included) is an edge
  of it;
* liveness — a short saturated run under the NoCSan deadlock watchdog
  completes without invariant violations;
* spec hashing — each fabric produces a distinct CellSpec hash (that every
  config field is hashed is ``tests/exec/test_spec.py``'s law);
* ownership — the fabric's builder, not ``NocConfig``, refuses what the
  fabric cannot build, and every (fabric, routing) pair that builds has a
  deadlock-law row.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    INTELLINOC,
    NocConfig,
    SECDED_BASELINE,
    SimulationConfig,
    fingerprint,
)
from repro.faults.scenario import (
    FaultScenario, IntermittentLink, LinkFailure, RouterFailure, TransientBurst,
    build_scenario, scenario_names,
)
from repro.noc.adaptive_routing import CANDIDATE_FUNCTIONS, west_first_candidates
from repro.noc.network import Network
from repro.noc.power_gating import POWER_GATED
from repro.noc.router import Router
from repro.noc.routing import NORTH, WEST, Direction
from repro.noc.topology import (
    TOPOLOGY_BUILDERS, DatelineTopology, MeshTopology, build_topology,
    registered_topologies,
)
from repro.noc.torus import TorusTopology
from repro.noc.vc import VcState
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.utils.rng import make_rng

#: One representative small fabric configuration per registered topology,
#: as overrides applied onto whatever NocConfig a technique already has
#: (techniques carry their own channel/MFAC parameters).
FABRIC_OVERRIDES = {
    "mesh": dict(width=4, height=4),
    "torus": dict(width=4, height=4, topology="torus"),
    "ring": dict(width=4, height=4, topology="ring"),
    "cmesh-c2": dict(width=4, height=4, topology="cmesh", concentration=2),
    "cmesh-c4": dict(width=4, height=4, topology="cmesh", concentration=4),
}
FABRIC_CONFIGS = {
    name: NocConfig(**over) for name, over in FABRIC_OVERRIDES.items()
}


@pytest.fixture(params=sorted(FABRIC_CONFIGS), name="noc")
def noc_fixture(request):
    return FABRIC_CONFIGS[request.param]


def test_every_registered_topology_is_covered():
    covered = {cfg.topology for cfg in FABRIC_CONFIGS.values()}
    assert covered == set(registered_topologies())


class TestStructure:
    def test_channels_reference_real_ports(self, noc):
        topo = build_topology(noc)
        ports_ok = set(topo.ports)
        assert len(topo.ports) == topo.num_ports
        for src, direction, dst in topo.channels():
            assert 0 <= src < topo.num_routers
            assert 0 <= dst < topo.num_routers
            assert isinstance(direction, Direction)
            assert direction in ports_ok
            assert direction.opposite in ports_ok

    def test_channels_have_reverse(self, noc):
        """Wormhole credit return needs a back channel for every link."""
        topo = build_topology(noc)
        endpoints = {(src, dst) for src, _, dst in topo.channels()}
        for src, dst in sorted(endpoints):
            assert (dst, src) in endpoints

    def test_channel_enumeration_is_unique(self, noc):
        topo = build_topology(noc)
        chans = topo.channels()
        assert len({(src, int(d)) for src, d, _ in chans}) == len(chans)

    def test_node_router_roundtrip(self, noc):
        topo = build_topology(noc)
        seen: set[int] = set()
        for rid in range(topo.num_routers):
            locals_ = topo.local_nodes(rid)
            assert locals_, f"router {rid} has no attached nodes"
            for node in locals_:
                assert topo.router_of_node(node) == rid
                assert node not in seen
                seen.add(node)
        assert seen == set(range(topo.num_nodes))

    def test_injection_ports_are_ejection_ports(self, noc):
        topo = build_topology(noc)
        for node in range(topo.num_nodes):
            rid = topo.router_of_node(node)
            port = topo.injection_port(node)
            assert port in topo.ejection_ports(rid)
            assert port in set(topo.ports)

    def test_distinct_locals_get_distinct_ports(self, noc):
        """Concentrated routers must not share one NI port between cores."""
        topo = build_topology(noc)
        for rid in range(topo.num_routers):
            ports = [topo.injection_port(n) for n in topo.local_nodes(rid)]
            assert len(set(ports)) == len(ports)

    def test_thermal_neighbors_are_symmetric(self, noc):
        topo = build_topology(noc)
        neigh = [set(topo.thermal_neighbors(r)) for r in range(topo.num_routers)]
        for rid, peers in enumerate(neigh):
            assert rid not in peers
            for p in peers:
                assert rid in neigh[p]


class TestRouting:
    def test_routing_reaches_destination_in_distance_hops(self, noc):
        topo = build_topology(noc)
        link = {(src, int(d)): dst for src, d, dst in topo.channels()}
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                if src == dst:
                    continue
                expected = topo.distance(src, dst)
                current = topo.router_of_node(src)
                hops = 0
                while True:
                    candidates = topo.route_candidates(current, dst)
                    assert candidates, f"no route at router {current} -> node {dst}"
                    if candidates[0] in topo.ejection_ports(current):
                        assert candidates == [topo.injection_port(dst)]
                        assert current == topo.router_of_node(dst)
                        break
                    # Every candidate must exist as a channel and shrink the
                    # remaining distance (minimal routing).
                    for port in candidates:
                        assert (current, int(port)) in link
                    current = link[(current, int(candidates[0]))]
                    hops += 1
                    assert hops <= expected, f"detour {src}->{dst}"
                assert hops == expected

    def test_distance_metric_sanity(self, noc):
        topo = build_topology(noc)
        for src in range(topo.num_nodes):
            assert topo.distance(src, src) == 0
            for dst in range(topo.num_nodes):
                assert topo.distance(src, dst) == topo.distance(dst, src)

    def test_vc_classes_partition_the_vcs(self, noc):
        topo = build_topology(noc)
        num_vcs = 4
        if not isinstance(topo, DatelineTopology):
            for cls in range(4):
                assert topo.allowed_vcs(cls, num_vcs) == range(num_vcs)
            return
        for cls in range(4):
            allowed = topo.allowed_vcs(cls, num_vcs)
            assert len(allowed) >= 1
            assert set(allowed) <= set(range(num_vcs))
        # Pre- and post-dateline classes of a dimension must be disjoint
        # (this is what breaks the cyclic channel dependency).
        assert not set(topo.allowed_vcs(0, num_vcs)) & set(
            topo.allowed_vcs(1, num_vcs)
        )

    def test_next_vc_class_is_idempotent(self, noc):
        """The bypass path may recompute the class at the same hop."""
        topo = build_topology(noc)
        for src, direction, _ in topo.channels():
            for cls in range(4):
                once = topo.next_vc_class(src, direction, cls)
                assert topo.next_vc_class(src, direction, once) == once


#: Every fabric, plus west-first (the one adaptive routing) on the two
#: fabrics that take it.
ROUTED_CONFIGS = {
    **FABRIC_CONFIGS,
    "mesh-west-first": replace(FABRIC_CONFIGS["mesh"], routing="west_first"),
    "cmesh-c4-west-first": replace(
        FABRIC_CONFIGS["cmesh-c4"], routing="west_first"
    ),
}


def dependency_graph(topo, num_vcs, dead_routers=(), dead_links=()):
    """The edges of the extended channel-dependency graph, read off the
    ``Topology`` contract alone (``channels``, ``live_candidates``,
    ``next_vc_class``, ``allowed_vcs``), with the routers in
    *dead_routers* and the ``(router, port)`` links in *dead_links* failed.

    A node is ``(router, output port, VCs the class may hold)``, so two
    classes that share VCs share a node.  An edge joins the channel a head
    holds to every channel its route may claim next.  Each destination's
    walk follows every route from every source; the graph is the union of
    their edges.  ``live_candidates`` is what ``Router.compute_route``
    routes by, so the graph is the simulator's own; a head with no live
    output is dropped, not routed, and adds no edge.
    """
    link = {(src, int(d)): dst for src, d, dst in topo.channels()}
    edges = set()
    for dst in range(topo.num_nodes):
        stack = [(topo.router_of_node(src), 0, None) for src in range(topo.num_nodes)]
        seen = set()
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            router, vc_class, held = state
            for port in topo.live_candidates(router, dst, dead_routers, dead_links):
                if port in topo.ejection_ports(router):
                    continue
                cls = topo.next_vc_class(router, port, vc_class)
                node = (router, int(port), tuple(topo.allowed_vcs(cls, num_vcs)))
                if held is not None:
                    edges.add((held, node))
                stack.append((link[(router, int(port))], cls, node))
    return edges


def find_cycle(edges):
    """One cycle of the directed graph ``edges`` as a node list, or ``None``
    when the graph is acyclic (an iterative three-colour DFS)."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    done, on_path = set(), {}
    for root in succ:
        if root in done:
            continue
        path, iters = [root], [iter(succ[root])]
        on_path[root] = 0
        while path:
            nxt = next(iters[-1], None)
            if nxt is None:
                node = path.pop()
                iters.pop()
                del on_path[node]
                done.add(node)
            elif nxt in on_path:
                return path[on_path[nxt]:] + [nxt]
            elif nxt not in done:
                on_path[nxt] = len(path)
                path.append(nxt)
                iters.append(iter(succ.get(nxt, ())))
    return None


def north_west_mutant(current, dst, width):
    """West-first that also lets a north-west head go NORTH first: the
    north->west turn the turn model forbids."""
    candidates = west_first_candidates(current, dst, width)
    if candidates == [WEST] and dst // width > current // width:
        return [NORTH, WEST]
    return candidates


def assert_acyclic_subgraph(noc, topo, routers, links):
    edges = dependency_graph(topo, noc.num_vcs, set(routers), set(links))
    assert find_cycle(edges) is None, (sorted(routers), sorted(links))
    # Minimal candidates: a failure only cuts edges (item 10 must keep this).
    assert edges <= dependency_graph(topo, noc.num_vcs)


def torus_flaps():
    """`torus_faults`' shape on a 4x4 gated-bypass torus: flaps, a burst."""
    noc = replace(INTELLINOC.noc, **FABRIC_OVERRIDES["torus"])
    rot = build_scenario("link-rot", build_topology(noc)).events
    return noc, FaultScenario("flaps-burst", (
        TransientBurst(start=300, end=1500, multiplier=300.0),
        *(e for e in rot if isinstance(e, IntermittentLink)),
    ))


def west_first_aging_cliff():
    noc = replace(INTELLINOC.noc, width=4, height=4, routing="west_first")
    return noc, build_scenario("aging-cliff", build_topology(noc))


def observed_claims(monkeypatch, make_run, claim=Router._claim_downstream_vc):
    """The consecutive VC claims of one packet attempt that are no edge (VCs
    included) of the graph proved for the dead set at the second claim, and
    how many claims gated routers made."""
    noc, scenario = make_run()
    topo = build_topology(noc)
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, 1500, 0.02,
        noc.flits_per_packet, make_rng(7, "observed-claims"),
    )
    config = SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=7)
    network = Network(config, trace, scenario=scenario)
    claims, gated = {}, 0

    def recorded(router, route, packet):
        nonlocal gated
        out_vc = claim(router, route, packet)
        if out_vc is not None:
            gated += router.gating.state is POWER_GATED
            dead = frozenset(network.dead_routers), frozenset(network.dead_links)
            claims.setdefault((packet.pid, packet.e2e_retransmissions), []).append(
                (router.id, int(route), out_vc, dead)
            )
        return out_vc

    monkeypatch.setattr(Router, "_claim_downstream_vc", recorded)
    network.run_to_completion(20_000)
    proved = {
        dead: {(*x[:2], v, *y[:2], w)
               for x, y in dependency_graph(topo, noc.num_vcs, *dead)
               for v in x[2] for w in y[2]}
        for dead in dict.fromkeys(hop[3] for hops in claims.values() for hop in hops)
    }
    return [(a, b) for hops in claims.values() for a, b in zip(hops, hops[1:])
            if (*a[:3], *b[:3]) not in proved[b[3]]], gated


class TestDeadlockFreedom:
    @pytest.mark.parametrize("fabric", sorted(ROUTED_CONFIGS))
    def test_channel_dependency_graph_is_acyclic(self, fabric):
        noc = ROUTED_CONFIGS[fabric]
        edges = dependency_graph(build_topology(noc), noc.num_vcs)
        assert edges
        cycle = find_cycle(edges)
        assert cycle is None, cycle

    def test_a_classless_torus_is_cyclic(self, monkeypatch):
        """Mutant: the dateline never moves a head to its upper VC half."""
        monkeypatch.setattr(TorusTopology, "next_vc_class", lambda *_: 0)
        noc = FABRIC_CONFIGS["torus"]
        edges = dependency_graph(build_topology(noc), noc.num_vcs)
        assert find_cycle(edges) is not None

    def test_west_first_with_a_north_west_turn_is_cyclic(self):
        noc = ROUTED_CONFIGS["mesh-west-first"]
        topo = build_topology(noc)
        topo._candidate_fn = north_west_mutant
        assert find_cycle(dependency_graph(topo, noc.num_vcs)) is not None


    @pytest.mark.parametrize("fabric", sorted(ROUTED_CONFIGS))
    def test_every_packs_terminal_failure_set_is_acyclic(self, fabric):
        noc = ROUTED_CONFIGS[fabric]
        topo = build_topology(noc)
        for name in scenario_names():
            events = build_scenario(name, topo).events
            assert_acyclic_subgraph(
                noc, topo,
                [e.router for e in events if isinstance(e, RouterFailure)],
                [(e.src_router, e.direction) for e in events
                 if isinstance(e, LinkFailure)],
            )

    @pytest.mark.parametrize("fabric", sorted(ROUTED_CONFIGS))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_drawn_failure_sets_are_acyclic(self, fabric, data):
        noc = ROUTED_CONFIGS[fabric]
        topo = build_topology(noc)
        channels = sorted((src, int(d)) for src, d, _ in topo.channels())
        links = data.draw(st.sets(st.sampled_from(channels), max_size=4))
        routers = data.draw(
            st.sets(st.integers(0, topo.num_routers - 1), max_size=2)
        )
        assert_acyclic_subgraph(noc, topo, routers, links)

    @pytest.mark.parametrize("make_run", [torus_flaps, west_first_aging_cliff],
                             ids=lambda f: f.__name__)
    def test_every_observed_claim_is_a_proved_edge(self, monkeypatch, make_run):
        stray, gated = observed_claims(monkeypatch, make_run)
        assert not stray, stray[:5]
        assert gated > 0  # the bypass claimed too

    def test_a_claim_from_the_current_class_half_is_caught(self, monkeypatch):
        """Mutant: a head claims from its current class's VC half, not from
        the half of the class the next channel puts it in."""
        def current_half(router, route, packet):
            topo, port = router.topology, router.downstream_ports[route]
            out_vc = port.free_vc_for_head(
                topo.allowed_vcs(packet.vc_class, router.noc.num_vcs)
            )
            if out_vc is not None:
                packet.vc_class = topo.next_vc_class(router.id, route, packet.vc_class)
                port.claim(out_vc, packet)
            return out_vc

        assert observed_claims(monkeypatch, torus_flaps, current_half)[0]


class TestLiveness:
    @pytest.mark.parametrize("tech", [SECDED_BASELINE, INTELLINOC],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("fabric", sorted(FABRIC_OVERRIDES))
    def test_saturated_run_is_sanitizer_clean(self, fabric, tech, tmp_path):
        """Watchdog-supervised run at saturating load: no deadlock, no
        invariant violation, and real forward progress."""
        from repro.analysis.sanitizer import NocSanitizer
        from repro.noc.network import Network
        from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
        from repro.utils.rng import make_rng

        noc = replace(tech.noc, **FABRIC_OVERRIDES[fabric])
        technique = replace(tech, noc=noc)
        trace = generate_synthetic_trace(
            SyntheticPattern.UNIFORM, noc.num_nodes, noc.width,
            duration=400, injection_rate=0.35, packet_size=2,
            rng=make_rng(11, "topology-saturation"),
        )
        sanitizer = NocSanitizer(
            interval=16, watchdog_cycles=1_200, snapshot_dir=tmp_path
        )
        config = SimulationConfig(technique=technique, seed=11)
        network = Network(config, trace, sanitizer=sanitizer)
        network.run(1_500)  # raises InvariantViolation on any failure
        assert sanitizer.checks_run > 0
        assert sanitizer.violations_seen == 0
        assert network.stats.packets_completed > 0


class TestOccupancyCounters:
    @pytest.mark.parametrize("tech", [SECDED_BASELINE, INTELLINOC],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("fabric", sorted(FABRIC_OVERRIDES))
    def test_is_idle_equals_the_scanning_definition(self, fabric, tech):
        """`Router.is_idle()` reads counters; on every fabric, every cycle,
        it must say what a scan of the input VCs (flits or an open worm)
        and the incoming channels says."""
        from repro.noc.network import Network
        from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
        from repro.utils.rng import make_rng

        noc = replace(tech.noc, **FABRIC_OVERRIDES[fabric])
        trace = generate_synthetic_trace(
            SyntheticPattern.UNIFORM, noc.num_nodes, noc.width,
            duration=250, injection_rate=0.05, packet_size=4,
            rng=make_rng(11, "topology-is-idle"),
        )
        config = SimulationConfig(technique=replace(tech, noc=noc), seed=11)
        network = Network(config, trace)
        busy_seen = idle_seen = 0
        for _ in range(400):
            network.step()
            for router in network.routers:
                scanned = all(
                    not vc.queue and vc.state is not VcState.ACTIVE
                    for _, _, vc in router._vc_slots
                ) and all(not c.queue for c in router.incoming.values())
                assert router.is_idle() == scanned
                idle_seen += scanned
                busy_seen += not scanned
        assert busy_seen and idle_seen  # both answers were exercised


class TestSpecHashing:
    def test_fabrics_hash_distinctly(self):
        hashes = {
            name: fingerprint(
                SimulationConfig(technique=replace(SECDED_BASELINE, noc=cfg), seed=1)
            )
            for name, cfg in FABRIC_CONFIGS.items()
        }
        assert len(set(hashes.values())) == len(hashes)


class OutsideMesh(MeshTopology):
    """A fabric registered from outside the package."""

    name = "outside-mesh"


#: Every fabric refusal, one row each: (NocConfig fields, the refusal's
#: message).  ``NocConfig`` takes these fields and the fabric's builder,
#: reached through ``build_topology``, refuses them; the fabric-independent
#: checks stay ``NocConfig``'s (tests/core/test_config.py).
REFUSED = {
    "unknown-topology": (dict(topology="hypercube"), "unknown topology"),
    "mesh-unknown-routing": (dict(routing="odd_even"), "routing must be one of"),
    "cmesh-unknown-routing": (
        dict(topology="cmesh", concentration=4, routing="odd_even"),
        "routing must be one of",
    ),
    "torus-west-first": (dict(topology="torus", routing="west_first"), "'xy'"),
    "ring-west-first": (dict(topology="ring", routing="west_first"), "'xy'"),
    "torus-1-vc": (dict(topology="torus", num_vcs=1), "at least 2 VCs"),
    "ring-1-vc": (dict(topology="ring", num_vcs=1), "at least 2 VCs"),
    "cmesh-c1": (dict(topology="cmesh"), "concentration must be 2 or 4"),
    "cmesh-c3": (dict(topology="cmesh", concentration=3), "concentration must be 2 or 4"),
    "cmesh-c4-on-6x3": (
        dict(width=6, height=3, topology="cmesh", concentration=4),
        "not divisible",
    ),
    "mesh-c2": (dict(concentration=2), "does not fit mesh"),
    "torus-c2": (dict(topology="torus", concentration=2), "does not fit torus"),
    "ring-c4": (dict(topology="ring", concentration=4), "does not fit ring"),
}


def builds(**fields):
    """Whether ``build_topology`` accepts a 4x4 NocConfig of *fields*."""
    try:
        build_topology(NocConfig(width=4, height=4, **fields))
    except ValueError:
        return False
    return True


class TestFabricOwnsItsConfig:
    def test_an_outside_fabric_registers_and_runs(self, monkeypatch):
        monkeypatch.setitem(
            TOPOLOGY_BUILDERS, OutsideMesh.name,
            lambda noc: OutsideMesh(noc.width, noc.height, routing=noc.routing),
        )
        assert OutsideMesh.name in registered_topologies()
        noc = replace(SECDED_BASELINE.noc, width=4, height=4, topology=OutsideMesh.name)
        trace = generate_synthetic_trace(
            SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, 300, 0.05,
            noc.flits_per_packet, make_rng(7, "outside-fabric"),
        )
        config = SimulationConfig(technique=replace(SECDED_BASELINE, noc=noc), seed=7)
        network = Network(config, trace)
        assert type(network.topology) is OutsideMesh
        network.run_to_completion(5_000)
        assert network.stats.packets_completed == len(trace.events) > 0

    @pytest.mark.parametrize("row", sorted(REFUSED))
    def test_every_refusal_holds(self, row):
        fields, message = REFUSED[row]
        noc = NocConfig(**fields)
        with pytest.raises(ValueError, match=message):
            build_topology(noc)

    def test_every_fabric_routing_pair_that_builds_has_a_deadlock_law_row(self):
        """A new routing family or fabric cannot land without a row in
        ``ROUTED_CONFIGS``, the configurations TestDeadlockFreedom proves."""
        buildable = {
            (fabric, routing)
            for fabric in registered_topologies()
            for routing in CANDIDATE_FUNCTIONS
            if any(builds(topology=fabric, routing=routing, concentration=c)
                   for c in range(1, 5))
        }
        proved = {(noc.topology, noc.routing) for noc in ROUTED_CONFIGS.values()}
        assert buildable == proved
