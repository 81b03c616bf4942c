"""Property-based invariants of the full network.

Hypothesis generates random workloads and checks conservation laws the
simulator must never violate: no flit loss, no duplication, per-packet
in-order completion, and energy monotonicity.  Beside them, one law that
is an equality: the zero-load latency of every (fabric, technique or fixed
mode, packet size).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CP, CPD, EB, FaultConfig, INTELLINOC, SECDED_BASELINE
from repro.noc.topology import build_topology
from repro.traffic.trace import TraceEvent
from tests.conftest import make_network
from tests.noc.test_topology_properties import FABRIC_OVERRIDES

techniques = st.sampled_from([SECDED_BASELINE, CP, CPD, INTELLINOC])


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 40))
    events = []
    for i in range(n):
        src = draw(st.integers(0, 63))
        dst = draw(st.integers(0, 63))
        if src == dst:
            continue
        cycle = draw(st.integers(0, 400))
        events.append(TraceEvent(cycle, src, dst, 4))
    return events


class TestConservation:
    @given(workloads(), techniques, st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_no_flit_lost_or_duplicated(self, events, technique, seed):
        net = make_network(
            technique=technique,
            events=events,
            seed=seed,
            faults=FaultConfig(base_bit_error_rate=0.0),
        )
        net.run_to_completion(60_000)
        assert net.stats.packets_completed == net.stats.packets_injected
        assert net._network_drained()
        # No source queue left anything behind.
        assert all(s.is_empty() for s in net.sources)

    @given(workloads(), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_conservation_under_faults(self, events, seed):
        """Even with aggressive error injection, every packet eventually
        completes exactly once (retries are bounded)."""
        net = make_network(
            technique=SECDED_BASELINE,
            events=events,
            seed=seed,
            faults=FaultConfig(base_bit_error_rate=1e-4),
        )
        net.run_to_completion(80_000)
        assert net.stats.packets_completed == net.stats.packets_injected

    @given(workloads())
    @settings(max_examples=10, deadline=None)
    def test_energy_strictly_positive_and_monotone(self, events):
        net = make_network(events=events)
        previous = 0.0
        for _ in range(6):
            net.run(200)
            total = net.accountant.total_pj()
            assert total >= previous
            previous = total
        assert previous > 0  # leakage alone guarantees nonzero energy

    @given(workloads())
    @settings(max_examples=10, deadline=None)
    def test_temperatures_stay_physical(self, events):
        net = make_network(events=events)
        net.run(1500)
        temps = net.thermal.temperatures
        ambient = net.config.faults.ambient_temperature
        assert np.all(temps >= ambient - 1e-6)
        assert np.all(temps < 500.0)  # nothing melts

    @given(workloads(), st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_latency_at_least_zero_load_bound(self, events, seed):
        """No packet beats the zero-load bound of its path."""
        net = make_network(
            events=events, seed=seed, faults=FaultConfig(base_bit_error_rate=0.0)
        )
        net.run_to_completion(60_000)
        if net.stats.latencies:
            # Minimum possible: 1 hop * (pipeline + link) + serialization.
            assert min(net.stats.latencies) >= 4


# --- zero-load latency as an equality -----------------------------------------
#
# One packet in an empty network takes exactly
#     (hops + 1) x head + hops x (link + ecc) + (flits - 1) x interval
# cycles from its trace stamp to its tail's ejection (hops = 0 between two
# cores of one cmesh router); with every router gated (mode 0) a hop is the
# one-cycle bypass and nothing else.  The constants are written out here, as
# in docs/calibration.md "Pipeline latencies", not imported: the oracle must
# not descend from the code it checks.

HEAD_CYCLES = {4: 2, 3: 1}  # pipeline stages -> cycles a head spends per router
LINK_CYCLES = 1
RELAXED_LINK_CYCLES = 2  # mode 4 on an MFAC channel
ECC_CYCLES = {1: 0, 2: 2, 3: 3, 4: 2}  # mode -> decode: CRC, SECDED, DECTED, SECDED
BYPASS_HOP_CYCLES = 1
BODY_INTERVAL = 1
EB_LINK_BODY_INTERVAL = 2  # EB's one-flit latches hand over every other cycle

#: (label, technique, fixed mode or None for the technique's own).  The gated
#: techniques run with the idle detector off: a wake-up is not part of a
#: zero-load path, and mode 0 gates every router by itself.
_IDLE_OFF = dict(idle_gate_threshold=10**9)
ZERO_LOAD_CASES = [
    ("SECDED", SECDED_BASELINE, None),
    ("EB", EB, None),
    ("CP", replace(CP, **_IDLE_OFF), None),
    *((f"CPD-mode{m}", replace(CPD, **_IDLE_OFF), m) for m in (1, 2, 3, 4)),
    *((f"IntelliNoC-mode{m}", replace(INTELLINOC, **_IDLE_OFF), m) for m in range(5)),
]


def zero_load_cycles(technique, mode, hops, flits):
    if mode == 0:
        return hops * BYPASS_HOP_CYCLES + (flits - 1) * BODY_INTERVAL
    mode = 2 if mode is None else mode  # the static techniques run SECDED
    link = RELAXED_LINK_CYCLES if mode == 4 and technique.uses_mfac else LINK_CYCLES
    eb_over_links = technique.name == "EB" and hops > 0
    return (
        (hops + 1) * HEAD_CYCLES[technique.noc.pipeline_stages]
        + hops * (link + ECC_CYCLES[mode])
        + (flits - 1) * (EB_LINK_BODY_INTERVAL if eb_over_links else BODY_INTERVAL)
    )


def shortest_hops(topology, src_router):
    """Breadth-first hop counts over the fabric's channels — neither
    ``Topology.distance`` nor the routing function is consulted."""
    hops = {src_router: 0}
    frontier = [src_router]
    while frontier:
        reached = [
            b for a, _direction, b in topology.channels()
            if a in frontier and b not in hops
        ]
        hops.update((b, hops[frontier[0]] + 1) for b in reached)
        frontier = reached
    return hops


@pytest.mark.parametrize("flits", [1, 4])
@pytest.mark.parametrize(
    "label,technique,mode", ZERO_LOAD_CASES, ids=[c[0] for c in ZERO_LOAD_CASES]
)
@pytest.mark.parametrize("fabric", sorted(FABRIC_OVERRIDES))
def test_zero_load_latency_is_exact(fabric, label, technique, mode, flits):
    technique = replace(
        technique.with_rl(time_step=10**9),  # no control step re-decides the mode
        noc=replace(technique.noc, **FABRIC_OVERRIDES[fabric]),
    )
    topology = build_topology(technique.noc)
    src = 5
    hops = shortest_hops(topology, topology.router_of_node(src))
    # One packet to every other core, far enough apart never to meet.
    destinations = [n for n in range(technique.noc.num_nodes) if n != src]
    net = make_network(
        technique=technique,
        events=[TraceEvent(60 * i, src, d, flits) for i, d in enumerate(destinations)],
        seed=1,
        faults=FaultConfig(base_bit_error_rate=0.0),
    )
    if mode is not None:
        for router in net.routers:
            router.apply_mode(mode, 0)
    net.run_to_completion(5_000)
    assert net.stats.latencies == [
        zero_load_cycles(technique, mode, hops[topology.router_of_node(d)], flits)
        for d in destinations
    ]
