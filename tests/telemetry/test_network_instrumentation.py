"""In-simulation instrumentation: what an attached hub observes."""

import pytest

from repro.config import INTELLINOC, SimulationConfig
from repro.noc.network import Network
from repro.telemetry import Telemetry
from repro.traffic.parsec import generate_parsec_trace


@pytest.fixture(scope="module")
def traced_run():
    """One INTELLINOC run observed by a hub (stride 50)."""
    noc = INTELLINOC.noc
    trace = generate_parsec_trace(
        "swa", noc.width, noc.height, 1500, noc.flits_per_packet, 7
    )
    config = SimulationConfig(technique=INTELLINOC, seed=7)
    tel = Telemetry(trace_stride=50)
    network = Network(config, trace, telemetry=tel)
    network.run_to_completion(60_000)
    network.finalize_telemetry()
    return network, tel


def test_counters_match_run_totals(traced_run):
    network, tel = traced_run
    (final,) = tel.events_of("final")
    s = network.stats
    assert final["injected"] == s.packets_injected
    assert final["completed"] == s.packets_completed
    assert final["flit_hops"] == s.flits_delivered
    assert final["flits_ejected"] == s.flits_ejected_total
    assert final["corrected_flits"] == s.corrected_flits
    assert final["hop_retransmissions"] == s.hop_retransmissions


def test_latency_histogram_sees_every_completion(traced_run):
    """The latency distribution's sum and count close the stream."""
    network, tel = traced_run
    (final,) = tel.events_of("final")
    assert final["latency_count"] == network.stats.latency_count
    assert final["latency_sum"] == network.stats.latency_sum


def test_sample_events_follow_the_stride(traced_run):
    _, tel = traced_run
    samples = tel.events_of("sample")
    assert samples, "expected epoch samples"
    assert all(e["cycle"] % 50 == 0 for e in samples)
    assert {"power_w", "mean_temp_k", "injected", "completed"} <= set(samples[0])


def test_rl_events_carry_reward_decomposition(traced_run):
    _, tel = traced_run
    rl = tel.events_of("rl")
    assert rl, "expected per-agent RL decision events"
    event = rl[0]
    assert {"router", "mode", "reward", "latency_term", "power_term",
            "aging_term", "explored", "q_delta"} <= set(event)
    # Reward is the sum of its published decomposition (each field is
    # independently rounded to 6 decimals, so allow that much slack).
    assert event["reward"] == pytest.approx(
        event["latency_term"] + event["power_term"] + event["aging_term"],
        abs=2e-6,
    )


def test_mode_events_record_transitions(traced_run):
    _, tel = traced_run
    modes = tel.events_of("mode")
    assert modes, "IntelliNoC run should switch modes"
    assert all(e["mode"] != e["prev"] for e in modes)


def test_control_events_census_all_routers(traced_run):
    network, tel = traced_run
    controls = tel.events_of("control")
    assert controls
    num_routers = network.topology.num_routers
    for event in controls:
        assert sum(event["modes"].values()) == num_routers


def test_final_event_summarizes_the_run(traced_run):
    network, tel = traced_run
    (final,) = tel.events_of("final")
    assert final["injected"] == network.stats.packets_injected
    assert final["completed"] == network.stats.packets_completed
