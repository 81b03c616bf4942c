"""The bit-identical-runs contract for the step profiler.

Mirror of ``test_disabled_identical.py``, for :class:`SimProfiler`: a run
with no profiler, a stride-1 profiler, and a sparse stride-3 profiler
must produce identical simulation outcomes.  The profiler reads a wall
clock *inside* ``Network.step`` — the one cycle-loop body, whose probes
are skipped on a step that is not sampled — so this is the test that
proves the clock never leaks into simulation state.
"""

from dataclasses import replace

import pytest

from repro.config import INTELLINOC, SECDED_BASELINE, SimulationConfig
from repro.faults.scenario import FaultScenario, IntermittentLink, TransientBurst
from repro.noc.network import Network
from repro.noc.routing import Direction
from repro.telemetry import SimProfiler, Telemetry
from repro.telemetry.simprof import STEP_PHASES
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.utils.rng import make_rng


def run_fingerprint(technique, simprof=None, telemetry=None, duration=800, seed=7):
    noc = technique.noc
    trace = generate_parsec_trace(
        "swa", noc.width, noc.height, duration, noc.flits_per_packet, seed
    )
    config = SimulationConfig(technique=technique, seed=seed)
    network = Network(config, trace, telemetry=telemetry, simprof=simprof)
    network.run_to_completion(duration * 4 + 50_000)
    s = network.stats
    return (
        network.cycle,
        s.packets_injected,
        s.packets_completed,
        s.flits_delivered,
        s.latency_sum,
        s.total_retransmitted_flits,
        s.corrected_flits,
        dict(s.mode_cycles),
    )


@pytest.mark.parametrize("technique", [SECDED_BASELINE, INTELLINOC],
                         ids=["secded", "intellinoc"])
def test_profiled_runs_are_bit_identical(technique):
    baseline = run_fingerprint(technique)
    dense = SimProfiler(stride=1)
    sparse = SimProfiler(stride=3)
    assert run_fingerprint(technique, simprof=dense) == baseline
    assert run_fingerprint(technique, simprof=sparse) == baseline
    # The profilers really ran — this test must not pass vacuously.
    assert dense.steps_profiled == dense.steps_seen > 0
    assert 0 < sparse.steps_profiled < sparse.steps_seen
    assert dense.hot_spots(top_n=1)


def test_profiler_composes_with_telemetry():
    baseline = run_fingerprint(INTELLINOC)
    prof = SimProfiler(stride=2)
    tel = Telemetry(trace_stride=50)
    assert run_fingerprint(INTELLINOC, simprof=prof, telemetry=tel) == baseline
    assert prof.steps_profiled > 0


def test_profiler_observes_the_whole_run():
    prof = SimProfiler(stride=1)
    run_fingerprint(INTELLINOC, simprof=prof)
    assert prof.first_cycle == 0
    assert prof.last_cycle == prof.steps_seen - 1
    totals = prof.phase_totals()
    # Every lap the network emits lands in a named phase bucket.
    assert "link.deliver" in totals
    assert "inject" in totals
    assert sum(prof.phase_laps().values()) > 0
    # Heat saw the full 8x8 fabric.
    assert len(prof.router_heat()) == 64


# --- the paths of the idle-router skip and the lean bypass ---------------------
#
# `_step_routers` runs here, sampled and not, on the traffic that lives on
# those paths, and is held to fingerprints recorded *before* the skip
# existed (commit a2a72f8), so "identical to each other" cannot hide
# "both changed".


def skip_path_fingerprint(network):
    s = network.stats
    return (
        network.cycle,
        s.packets_injected,
        s.packets_completed,
        s.flits_delivered,
        s.latency_sum,
        s.total_retransmitted_flits,
        s.corrected_flits,
        s.bypass_traversals,
        dict(s.mode_cycles),
        round(network.accountant.total_pj(), 6),
    )


def light_gated_mesh(simprof=None):
    """Paper load on the 8x8 mesh: most routers gated, bypass is the datapath."""
    noc = INTELLINOC.noc
    trace = generate_parsec_trace(
        "bod", noc.width, noc.height, 1200, noc.flits_per_packet, 7
    )
    network = Network(
        SimulationConfig(technique=INTELLINOC, seed=7), trace, simprof=simprof
    )
    network.run_to_completion(60_000)
    return skip_path_fingerprint(network)


def faulted_torus(simprof=None):
    """Dateline VCs, a link that flaps (held flits) and a x300 error burst."""
    noc = replace(INTELLINOC.noc, width=4, height=4, topology="torus")
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, 1200, 0.03,
        noc.flits_per_packet, make_rng(7, "simprof-identical/torus"),
    )
    scenario = FaultScenario(name="flap+burst", events=(
        TransientBurst(start=100, end=1000, multiplier=300.0),
        IntermittentLink(
            start=150, end=1100, src_router=5, direction=int(Direction.EAST),
            period=200, downtime=60,
        ),
    ))
    network = Network(
        SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=7),
        trace, scenario=scenario, simprof=simprof,
    )
    network.run_to_completion(60_000)
    return skip_path_fingerprint(network)


PRE_SKIP_FINGERPRINTS = {
    light_gated_mesh: (
        1270, 1592, 1592, 10287, 31267, 0, 0, 25367,
        {0: 0, 1: 76200, 2: 200, 3: 400, 4: 0}, 296751.59,
    ),
    faulted_torus: (
        1205, 579, 579, 1093, 6522, 36, 0, 5844,
        {0: 0, 1: 19200, 2: 0, 3: 0, 4: 0}, 60977.11,
    ),
}


@pytest.mark.parametrize("run", list(PRE_SKIP_FINGERPRINTS),
                         ids=lambda run: run.__name__)
def test_skip_paths_match_each_other_and_the_pre_skip_run(run):
    expected = PRE_SKIP_FINGERPRINTS[run]
    assert expected[7] > expected[3]  # bypass carries most flit moves here
    assert run() == expected
    dense = SimProfiler(stride=1)
    assert run(simprof=dense) == expected
    assert run(simprof=SimProfiler(stride=3)) == expected
    laps = dense.phase_laps()
    assert laps["router.bypass"] > 0 and laps["router.gating"] > 0


@pytest.mark.parametrize("run", list(PRE_SKIP_FINGERPRINTS),
                         ids=lambda run: run.__name__)
def test_probes_emit_exactly_the_canonical_phases(run):
    # bench/ turns these names into its `noc.phase.*_s` metrics.
    dense = SimProfiler(stride=1)
    run(simprof=dense)
    assert set(dense.phase_laps()) == set(STEP_PHASES)


@pytest.mark.parametrize("run", list(PRE_SKIP_FINGERPRINTS),
                         ids=lambda run: run.__name__)
def test_an_unsampled_step_emits_no_lap(run):
    sparse = SimProfiler(stride=3)
    cycles = run(simprof=sparse)[0]
    assert sparse.steps_seen == cycles
    assert sparse.steps_profiled == -(-cycles // 3)
    # `inject` is lapped exactly once per sampled step.
    assert sparse.phase_laps()["inject"] == sparse.steps_profiled
