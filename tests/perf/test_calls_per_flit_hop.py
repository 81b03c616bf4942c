"""Deterministic work counter for the cycle loop (ROADMAP item 1b).

Wall time on a shared host drifts by a third over minutes; the number of
function calls the interpreter makes to move one flit one hop does not.
This test counts them on a small busy mesh and holds them under a budget,
so a change that puts per-flit Python back into the powered pipeline
(request-line lists, property chains, per-hop recomputation of per-mode
constants) fails here without a stopwatch.  Its twin does the same for the
gated half of the loop: a lightly loaded, faulted torus whose flits mostly
move through bypass switches.
"""

import sys
from dataclasses import replace

from repro.config import INTELLINOC, SimulationConfig
from repro.faults.scenario import FaultScenario, IntermittentLink, TransientBurst
from repro.metrics.summary import RunMetrics
from repro.noc.network import Network
from repro.noc.routing import Direction
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.utils.rng import make_rng

#: Function calls (Python and builtin) per flit-hop the run below may
#: cost.  Measured 78.9 when the budget was set (CPython 3.11); the loop
#: it replaced cost 125.7.  About 10 % of slack for interpreter versions.
CALLS_PER_FLIT_HOP_BUDGET = 87.0

CYCLES = 300

#: The same, per flit *move* (a bypass traversal or a delivery into a
#: powered router), on the gated torus below.  Measured 41.4 when the
#: budget was set; the loop it replaced cost 63.0.
CALLS_PER_GATED_FLIT_MOVE_BUDGET = 45.5

GATED_CYCLES = 1500


def small_busy_mesh() -> Network:
    """A 4x4 IntelliNoC mesh under uniform traffic at 0.08 pkt/node/cycle."""
    technique = replace(INTELLINOC, noc=replace(INTELLINOC.noc, width=4, height=4))
    noc = technique.noc
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM,
        noc.num_nodes,
        noc.width,
        CYCLES,
        0.08,
        noc.flits_per_packet,
        make_rng(11, "tests/perf/calls-per-flit-hop"),
    )
    return Network(SimulationConfig(technique=technique, seed=11), trace)


def small_gated_torus() -> Network:
    """A 4x4 IntelliNoC torus at 0.02 pkt/node/cycle — routers gate on
    idleness and the bypass carries the traffic — under a x300 error burst
    with one flapping link."""
    noc = replace(INTELLINOC.noc, width=4, height=4, topology="torus")
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM,
        noc.num_nodes,
        noc.width,
        GATED_CYCLES,
        0.02,
        noc.flits_per_packet,
        make_rng(11, "tests/perf/calls-per-flit-move"),
    )
    scenario = FaultScenario(
        "burst-and-flap",
        (
            TransientBurst(start=200, end=GATED_CYCLES, multiplier=300.0),
            IntermittentLink(
                start=300, end=GATED_CYCLES, src_router=5,
                direction=int(Direction.EAST), period=120, downtime=40,
            ),
        ),
    )
    config = SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=11)
    return Network(config, trace, scenario=scenario)


def run_counting_calls(network: Network, cycles: int = CYCLES) -> int:
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(on_event)
    try:
        network.run(cycles)
    finally:
        sys.setprofile(None)
    return calls


def test_calls_per_flit_hop_stay_under_budget():
    network = small_busy_mesh()
    calls = run_counting_calls(network)
    hops = network.stats.flits_delivered
    assert hops > 1000  # the mesh really was busy
    assert calls / hops < CALLS_PER_FLIT_HOP_BUDGET, (calls, hops)


def test_calls_per_gated_flit_move_stay_under_budget():
    network = small_gated_torus()
    calls = run_counting_calls(network, GATED_CYCLES)
    stats = network.stats
    assert stats.bypass_traversals > 5000  # the bypass really was the datapath
    assert stats.bypass_traversals > 10 * stats.flits_delivered
    assert stats.e2e_retransmission_flits > 0  # and the burst really bit
    moves = stats.bypass_traversals + stats.flits_delivered
    assert calls / moves < CALLS_PER_GATED_FLIT_MOVE_BUDGET, (calls, moves)


def assert_counting_changes_nothing(build, cycles):
    counted, plain = build(), build()
    run_counting_calls(counted, cycles)
    plain.run(cycles)
    assert (
        RunMetrics.from_network(counted, "uniform").to_dict()
        == RunMetrics.from_network(plain, "uniform").to_dict()
    )


def test_counting_calls_does_not_change_the_run():
    assert_counting_changes_nothing(small_busy_mesh, CYCLES)


def test_counting_calls_does_not_change_the_gated_run():
    assert_counting_changes_nothing(small_gated_torus, GATED_CYCLES)
