"""Behavioral tests of the full IntelliNoC stack (slow-ish integration)."""

import pytest

from repro.config import FaultConfig, INTELLINOC, SECDED_BASELINE, SimulationConfig
from repro.core.intellinoc import pretrain_agents
from repro.exec.spec import parsec_cell
from repro.exec.worker import build_trace, execute_cell
from repro.metrics.summary import run_to_metrics
from repro.noc.network import Network


#: The pre-training every test here deploys (seed 11, default faults).
PRETRAIN_CYCLES = 8000


@pytest.fixture(scope="module")
def trained_policy():
    return pretrain_agents(INTELLINOC, duration=PRETRAIN_CYCLES, seed=11)


class TestEndToEndStory:
    """The paper's three claims, at smoke scale, on a light benchmark."""

    @pytest.fixture(scope="class")
    def results(self, trained_policy):
        request = {}
        for technique, policy in (
            (SECDED_BASELINE, None),
            (INTELLINOC, trained_policy),
        ):
            spec = parsec_cell(
                technique, "swa", 3000, seed=11, pretrain_cycles=PRETRAIN_CYCLES
            )
            request[technique.name] = execute_cell(spec, policy)
        return request

    def test_intellinoc_saves_energy(self, results):
        base, ours = results["SECDED"], results["IntelliNoC"]
        assert ours.total_energy_j < base.total_energy_j

    def test_intellinoc_extends_mttf(self, results):
        base, ours = results["SECDED"], results["IntelliNoC"]
        assert ours.reliability.mttf_seconds > base.reliability.mttf_seconds

    def test_intellinoc_does_not_sacrifice_performance(self, results):
        base, ours = results["SECDED"], results["IntelliNoC"]
        assert ours.execution_cycles <= base.execution_cycles * 1.1

    def test_intellinoc_runs_cooler(self, results):
        base, ours = results["SECDED"], results["IntelliNoC"]
        assert ours.mean_temperature_k < base.mean_temperature_k

    def test_all_modes_reachable(self, results):
        breakdown = results["IntelliNoC"].mode_breakdown
        assert breakdown[1] > 0  # CRC-only exercised
        assert sum(breakdown.values()) == pytest.approx(1.0)


class TestUnderHeavyErrors:
    def test_survives_pathological_error_rates(self, trained_policy):
        """At error rates far beyond the calibrated regime the system
        still delivers every packet (the recovery paths compose), and the
        error machinery is visibly exercised.  The policy was trained under
        the default faults, so no spec names this run: it builds its own
        ``Network``."""
        config = SimulationConfig(
            technique=INTELLINOC,
            seed=11,
            faults=FaultConfig(base_bit_error_rate=3e-4),
        )
        trace = build_trace(parsec_cell(INTELLINOC, "fac", 4000, seed=11))
        noisy = run_to_metrics(Network(config, trace, policy=trained_policy))
        assert noisy.packets_completed > 0
        r = noisy.reliability
        assert r.total_retransmitted_flits + r.corrected_flits > 0
