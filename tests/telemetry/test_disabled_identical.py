"""The zero-overhead contract: telemetry must never change results.

A run with no hub and a run with a hub attached must produce
bit-identical simulation outcomes — same packet
counts, same latency sums, same RL mode timeline.  This is the acceptance
gate for adding instrumentation to the hot path: an instrument that
perturbs the simulation (e.g. by touching the Q-table's LRU order) shows
up here as a fingerprint mismatch.
"""

import pytest

from repro.config import INTELLINOC, SECDED_BASELINE, SimulationConfig
from repro.noc.network import Network
from repro.telemetry import Telemetry
from repro.traffic.parsec import generate_parsec_trace


def run_fingerprint(technique, telemetry, duration=1200, seed=7):
    noc = technique.noc
    trace = generate_parsec_trace(
        "swa", noc.width, noc.height, duration, noc.flits_per_packet, seed
    )
    config = SimulationConfig(technique=technique, seed=seed)
    network = Network(config, trace, telemetry=telemetry)
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
def test_enabled_disabled_and_absent_runs_are_identical(technique):
    baseline = run_fingerprint(technique, telemetry=None)
    disabled = run_fingerprint(technique, telemetry=None)
    enabled = run_fingerprint(technique, telemetry=Telemetry(trace_stride=50))
    assert disabled == baseline
    assert enabled == baseline


def test_trace_stride_does_not_change_results():
    dense = run_fingerprint(INTELLINOC, telemetry=Telemetry(trace_stride=1))
    sparse = run_fingerprint(INTELLINOC, telemetry=Telemetry(trace_stride=500))
    assert dense == sparse


def test_disabled_hub_stays_empty_after_run():
    """Off is `None`: an unobserved network wires no hook anywhere."""
    noc = INTELLINOC.noc
    trace = generate_parsec_trace(
        "swa", noc.width, noc.height, 300, noc.flits_per_packet, 7
    )
    network = Network(SimulationConfig(technique=INTELLINOC, seed=7), trace)
    network.run_to_completion(50_000)
    network.finalize_telemetry()
    assert all(r.telemetry is None for r in network.routers)
