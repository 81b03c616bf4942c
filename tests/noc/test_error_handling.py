"""Integration tests for every error-recovery path (scripted link strikes)."""

import pytest

from repro.config import (
    CPD,
    EccScheme,
    FaultConfig,
    INTELLINOC,
    SECDED_BASELINE,
)
from repro.faults.scenario import FaultScenario, LinkStrike
from repro.noc.routing import Direction
from repro.traffic.trace import Trace, TraceEvent
from repro.noc.network import Network
from repro.config import SimulationConfig

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)


def first_link_strike(bit_errors=1):
    """A scenario whose one event strikes router 0's EAST link at cycle 0."""
    return FaultScenario(name="strike", events=(
        LinkStrike(cycle=0, src_router=0, direction=int(Direction.EAST),
                   bit_errors=bit_errors),
    ))


def run_with_fault(bit_errors, technique=SECDED_BASELINE, dst=3):
    """Send one packet 0 -> dst along +X and strike the first link."""
    config = SimulationConfig(technique=technique, seed=1, faults=NO_FAULTS)
    net = Network(config, Trace([TraceEvent(0, 0, dst, 4)]),
                  scenario=first_link_strike(bit_errors))
    net.run_to_completion(5000)
    return net


class TestSecdedRecovery:
    def test_single_bit_corrected_in_place(self):
        net = run_with_fault(1)
        assert net.stats.corrected_flits == 1
        assert net.stats.hop_retransmissions == 0
        assert net.stats.packets_completed == 1
        assert net.stats.corrupted_packets_delivered == 0

    def test_double_bit_triggers_hop_retransmission(self):
        net = run_with_fault(2)
        assert net.stats.hop_retransmissions == 1
        assert net.stats.packets_completed == 1
        # The replay delivers clean data.
        assert net.stats.corrupted_packets_delivered == 0

    def test_triple_bit_slips_through_to_e2e_crc(self):
        net = run_with_fault(3)
        assert net.stats.silent_corruptions == 1
        # The destination CRC catches it and the packet retries end-to-end.
        assert net.stats.e2e_retransmission_flits == 4
        assert net.stats.packets_completed == 1

    def test_retransmission_adds_latency(self):
        clean = run_with_fault(1)  # corrected: no timing cost
        retried = run_with_fault(2)
        assert retried.stats.average_latency > clean.stats.average_latency


class TestCrcOnlyPath:
    def test_any_error_under_crc_mode_costs_full_packet_retry(self):
        """CPD starts in mode 1 (CRC only): even 1-bit errors ride to the
        destination and cost an end-to-end retransmission."""
        net = run_with_fault(1, technique=CPD)
        assert net.stats.corrected_flits == 0
        assert net.stats.e2e_retransmission_flits == 4
        assert net.stats.packets_completed == 1

    def test_massive_burst_is_silent_corruption(self):
        net = run_with_fault(12, technique=CPD)
        assert net.stats.corrupted_packets_delivered == 1
        assert net.stats.packets_completed == 1


class TestRetryBudget:
    def test_unlucky_packet_eventually_delivered_corrupted(self):
        """With a saturating error process the retry valve caps attempts."""
        faults = FaultConfig(base_bit_error_rate=0.05, multi_bit_fraction=0.0)
        config = SimulationConfig(technique=CPD, seed=1, faults=faults)
        net = Network(config, Trace([TraceEvent(0, 0, 1, 4)]))
        net.run_to_completion(60_000)
        assert net.stats.packets_completed == 1


class TestLinkStrikePlumbing:
    def test_fault_consumed_exactly_once(self):
        config = SimulationConfig(technique=SECDED_BASELINE, seed=1, faults=NO_FAULTS)
        events = [TraceEvent(0, 0, 3, 4), TraceEvent(100, 0, 3, 4)]
        net = Network(config, Trace(events), scenario=first_link_strike())
        net.run_to_completion(5000)
        assert net._scenario.events_fired == 1
        assert net.stats.corrected_flits == 1  # only the first packet hit
