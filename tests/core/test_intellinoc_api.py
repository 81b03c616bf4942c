"""Tests for running one cell outside a campaign, and RL pre-training."""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.intellinoc as intellinoc_module
from repro.config import FaultConfig, INTELLINOC, SimulationConfig, technique
from repro.core.intellinoc import pretrain_agents
from repro.control.policies import RlPolicy
from repro.exec.spec import parsec_cell, training_technique
from repro.exec.worker import build_trace, execute_cell, pretrain
from repro.metrics.summary import run_to_metrics
from repro.noc.network import Network
from repro.traffic.parsec import PARSEC_PROFILES, generate_parsec_trace
from repro.traffic.trace import Trace, TraceEvent


QUIET = FaultConfig(base_bit_error_rate=1e-9)


def cell(name, seed=2, duration=1500, **kwargs):
    return parsec_cell(
        technique(name), "swa", duration, seed=seed, faults=QUIET, **kwargs
    )


class TestConstruction:
    def test_by_name(self):
        assert cell("secded").technique.name == "SECDED"
        assert cell("intellinoc").technique.name == "IntelliNoC"

    def test_by_config(self):
        assert parsec_cell(INTELLINOC, "swa", 1000).technique is INTELLINOC

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            technique("nonsense")

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            build_trace(parsec_cell(technique("secded"), "doom3", 1000))


class TestRunning:
    def test_run_benchmark_returns_metrics(self):
        metrics = execute_cell(cell("secded"))
        assert metrics.packets_completed > 0
        assert metrics.workload == "swa"

    def test_same_seed_reproducible(self):
        a = execute_cell(cell("cp", seed=9))
        b = execute_cell(cell("cp", seed=9))
        assert a.latency.mean == b.latency.mean
        assert a.total_energy_j == b.total_energy_j

    def test_run_trace_uses_given_trace(self):
        """A cell runs the trace ``build_trace`` gives for its spec."""
        spec = cell("secded", duration=1200)
        config = SimulationConfig(
            technique=spec.technique, seed=spec.seed, faults=spec.faults
        )
        network = Network(config, build_trace(spec))
        assert execute_cell(spec) == run_to_metrics(network)


class TestPretraining:
    def test_pretrain_returns_trained_rl_policy(self):
        policy = pretrain_agents(INTELLINOC, duration=3000, seed=2)
        assert isinstance(policy, RlPolicy)
        assert policy.max_table_entries() > 0
        # The master explores at the training rate; a cell deploys its own.
        assert policy.agents[0].policy.epsilon == training_technique(INTELLINOC).rl.epsilon

    def test_private_tables_after_pretraining(self):
        policy = pretrain_agents(INTELLINOC, duration=3000, seed=2)
        assert policy.agents[0].qtable is not policy.agents[1].qtable

    def test_pretrain_rejects_non_rl_technique(self):
        with pytest.raises(ValueError):
            pretrain_agents(technique("cp"), duration=3000)

    SMALL = replace(INTELLINOC, noc=replace(INTELLINOC.noc, width=4, height=4))

    @pytest.mark.parametrize("duration", [1000, 3000, 5000])
    def test_skipping_unreached_segments_trains_the_same_policy(
        self, monkeypatch, duration
    ):
        """The load sweep's later segments start at or after the last
        pre-training cycle of a short horizon and are never admitted; not
        generating them leaves every Q-value and every agent's generator
        where training on all five segments leaves them."""
        noc = self.SMALL.noc
        trained = pretrain_agents(self.SMALL, duration=duration, seed=2)

        def five_segment_trace(events, name):
            profile = PARSEC_PROFILES["blackscholes"]
            segment = max(1000, duration // 5)
            full = []
            for i, mult in enumerate((0.5, 1.0, 2.0, 3.0, 4.5)):
                scaled = replace(
                    profile, injection_rate=min(0.45, profile.injection_rate * mult)
                )
                part = generate_parsec_trace(
                    scaled, noc.width, noc.height, segment, noc.flits_per_packet, 2 + i
                )
                full.extend(
                    TraceEvent(e.cycle + i * segment, e.src, e.dst, e.size, e.reply)
                    for e in part.events
                )
            assert full[: len(events)] == events  # what was built is its prefix
            assert (len(full) > len(events)) == (duration < 5 * segment)
            return Trace(full, name=name)

        monkeypatch.setattr(intellinoc_module, "Trace", five_segment_trace)
        reference = pretrain_agents(self.SMALL, duration=duration, seed=2)
        assert trained.max_table_entries() > 0
        for got, want in zip(trained.agents, reference.agents, strict=True):
            assert got.qtable.states() == want.qtable.states()
            for state in want.qtable.states():
                assert np.array_equal(
                    got.qtable.q_values(state), want.qtable.q_values(state)
                )
            assert (
                got.policy._rng.bit_generator.state
                == want.policy._rng.bit_generator.state
            )

    def test_full_horizon_still_sweeps_all_five_loads(self, monkeypatch):
        generated = []
        real = intellinoc_module.generate_parsec_trace

        def recording(profile, width, height, duration, packet_size, seed):
            generated.append((profile.injection_rate, duration, seed))
            return real(profile, width, height, duration, packet_size, seed)

        monkeypatch.setattr(intellinoc_module, "generate_parsec_trace", recording)
        monkeypatch.setattr(intellinoc_module.Network, "run", lambda self, cycles: None)
        pretrain_agents(self.SMALL, duration=40_000, seed=2)
        base = PARSEC_PROFILES["blackscholes"].injection_rate
        assert generated == [
            (min(0.45, base * mult), 8000, 2 + i)
            for i, mult in enumerate((0.5, 1.0, 2.0, 3.0, 4.5))
        ]

    def test_with_pretrained_policy_runs(self):
        spec = cell("intellinoc", pretrain_cycles=3000)
        metrics = execute_cell(spec, pretrain(spec.pretraining))
        assert metrics.packets_completed > 0
