"""The `final` record: no value lost, never capped, observation stays pure.

The event stream replaced a Prometheus-style instrument snapshot.  Every
sample that snapshot exposed is listed below with where the stream keeps
it now — a `final` field, checked against the model state the snapshot
read it from, or the count of an unstrided event kind, exact whenever
`final["dropped_events"] == 0`.  (The latency histogram's sum and count
stay; its buckets go — `RunMetrics` holds the distribution.)
"""

from dataclasses import replace

import pytest

from repro.config import INTELLINOC, SimulationConfig
from repro.exec.spec import parsec_cell
from repro.exec.worker import execute_cell
from repro.metrics.summary import run_to_metrics
from repro.noc.network import Network
from repro.telemetry import SimProfiler, Telemetry
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.utils.rng import make_rng

#: snapshot name -> (final field, the model state the snapshot read).
TOTALS = {
    "noc_packets_injected_total": ("injected", lambda n: n.stats.packets_injected),
    "noc_packets_completed_total": ("completed", lambda n: n.stats.packets_completed),
    "noc_flit_hops_total": ("flit_hops", lambda n: n.stats.flits_delivered),
    "noc_flits_ejected_total": ("flits_ejected", lambda n: n.stats.flits_ejected_total),
    "noc_hop_retransmissions_total":
        ("hop_retransmissions", lambda n: n.stats.hop_retransmissions),
    "noc_e2e_retransmission_flits_total":
        ("e2e_retransmission_flits", lambda n: n.stats.e2e_retransmission_flits),
    "noc_corrected_flits_total": ("corrected_flits", lambda n: n.stats.corrected_flits),
    "noc_silent_corruptions_total":
        ("silent_corruptions", lambda n: n.stats.silent_corruptions),
    "noc_bypass_traversals_total":
        ("bypass_traversals", lambda n: n.stats.bypass_traversals),
    "noc_gate_transitions_total":
        ("gate_transitions", lambda n: sum(r.gating.gate_count for r in n.routers)),
    "noc_wake_transitions_total":
        ("wake_transitions", lambda n: sum(r.gating.wake_count for r in n.routers)),
    "noc_mfac_function_switches_total":
        ("mfac_function_switches",
         lambda n: sum(c.function_switches for c in n.channels)),
    "noc_mean_temperature_k": ("mean_temp_k", lambda n: n.thermal.mean_temperature()),
    "noc_peak_temperature_k": ("peak_temp_k", lambda n: n.thermal.peak_temperature_k),
    "noc_max_aging_factor": ("max_aging", lambda n: n.aging.max_aging()),
    "noc_max_delta_vth_volts": ("max_delta_vth_v", lambda n: n.aging.max_delta_vth()),
    "noc_powered_routers":
        ("powered_routers", lambda n: sum(1 for r in n.routers if r.gating.powered)),
    "noc_channel_occupancy_flits":
        ("channel_flits", lambda n: sum(c.occupancy for c in n.channels)),
    "noc_packet_latency_cycles_sum": ("latency_sum", lambda n: n.stats.latency_sum),
    "noc_packet_latency_cycles_count":
        ("latency_count", lambda n: n.stats.latency_count),
}

#: Power gauges: the last closed epoch, summed over routers.
EPOCH_POWER = {
    "noc_total_power_w": ("power_w", lambda p: float(p.total_w.sum())),
    "noc_dynamic_power_w": ("dynamic_w", lambda p: float(p.dynamic_w.sum())),
    "noc_static_power_w": ("static_w", lambda p: float(p.static_w.sum())),
}

#: Counters of unstrided event kinds: the count of records of that kind.
EVENT_COUNTS = {
    "noc_mode_transitions_total": "mode",
    "noc_ecc_transitions_total": "ecc",
    "noc_scenario_events_total": "scenario",
    "noc_packets_dropped_total": "drop",
}

CASES = [
    (topology, scenario)
    for topology in ("mesh", "torus")
    for scenario in ("", "link-rot")
]


def build(topology, scenario, telemetry=None, simprof=None):
    """A 4x4 IntelliNoC fabric under uniform load; link-rot fires from
    cycle 400 and kills a link at 2000."""
    noc = replace(
        INTELLINOC.noc, width=4, height=4, topology=topology,
        fault_scenario=scenario,
    )
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, 2400, 0.03,
        noc.flits_per_packet, make_rng(7, "final-record"),
    )
    return Network(
        SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=7),
        trace, telemetry=telemetry, simprof=simprof,
    )


def fingerprint(network):
    s = network.stats
    return (
        network.cycle, s.packets_injected, s.packets_completed,
        s.flits_delivered, s.latency_sum, s.total_retransmitted_flits,
        s.corrected_flits, s.wakeups, s.bypass_traversals,
        s.packets_dropped_dead_link, s.packets_undeliverable,
        dict(s.mode_cycles), round(network.accountant.total_pj(), 6),
    )


@pytest.mark.parametrize("topology,scenario", CASES,
                         ids=[f"{t}-{s or 'none'}" for t, s in CASES])
def test_no_snapshot_value_is_lost(topology, scenario):
    tel = Telemetry()
    network = build(topology, scenario, telemetry=tel)
    ecc_before = sum(r.ecc.transitions for r in network.routers)
    epochs = []
    close_epoch = network.accountant.close_epoch
    network.accountant.close_epoch = lambda now: epochs.append(close_epoch(now)) or epochs[-1]
    run_to_metrics(network)

    (final,) = tel.events_of("final")
    assert tel.events[-1] is final
    for name, (field, read) in TOTALS.items():
        assert final[field] == read(network), name
    for name, (field, read) in EPOCH_POWER.items():
        assert final[field] == read(epochs[-1]), name
    assert final["dropped_events"] == 0
    counts = {name: len(tel.events_of(kind)) for name, kind in EVENT_COUNTS.items()}
    s = network.stats
    assert counts["noc_packets_dropped_total"] == (
        s.packets_dropped_dead_router + s.packets_dropped_dead_link
        + s.packets_undeliverable
    )
    assert counts["noc_ecc_transitions_total"] == (
        sum(r.ecc.transitions for r in network.routers) - ecc_before
    )
    assert (counts["noc_scenario_events_total"] > 0) == bool(scenario)
    assert counts["noc_mode_transitions_total"] > 0


def test_observed_faulted_torus_is_bit_identical_to_a_bare_run():
    bare = build("torus", "link-rot")
    run_to_metrics(bare)
    tel, prof = Telemetry(trace_stride=7), SimProfiler(stride=7)
    observed = build("torus", "link-rot", telemetry=tel, simprof=prof)
    run_to_metrics(observed)
    assert fingerprint(observed) == fingerprint(bare)
    # Observation really ran, on the drop and scenario sites too.
    assert tel.events_of("scenario") and tel.events_of("final")
    assert prof.steps_profiled == -(-prof.steps_seen // 7) > 0


def test_final_record_survives_the_event_cap():
    tel = Telemetry(trace_stride=1, max_events=50)
    execute_cell(parsec_cell(INTELLINOC, "swa", 400, seed=7), telemetry=tel)
    assert tel.dropped_events > 0
    assert len(tel.events) == 51
    (final,) = tel.events_of("final")
    assert tel.events[-1] is final
    assert final["dropped_events"] == tel.dropped_events
