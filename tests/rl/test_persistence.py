"""Tests for policy save/load."""

import json

import numpy as np
import pytest

from repro.config import INTELLINOC
from repro.control.policies import make_policy
from repro.rl.persistence import load_policy, save_policy
from repro.utils.rng import RngFactory
from tests.rl.test_state import make_obs


def trained_policy(num_routers=4):
    policy = make_policy(INTELLINOC, num_routers, RngFactory(3))
    # Drive a few decisions so tables hold real values.
    for step in range(6):
        obs = [make_obs(in_util=0.02 * step, temp=320 + step) for _ in range(num_routers)]
        policy.control_step(obs, step * 1000)
    return policy


class TestRoundTrip:
    def test_tables_survive_roundtrip(self, tmp_path):
        policy = trained_policy()
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        loaded = load_policy(path, seed=9)
        assert len(loaded.agents) == len(policy.agents)
        for orig, new in zip(policy.agents, loaded.agents):
            assert len(new.qtable) == len(orig.qtable)
            for state in orig.qtable.states():
                assert np.allclose(
                    new.qtable.q_values(state), orig.qtable.q_values(state)
                )

    def test_reload_is_exact_and_starts_new_rows_where_the_original_does(
        self, tmp_path
    ):
        policy = trained_policy()
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        unseen = (4,) * 16
        for orig, new in zip(policy.agents, loaded.agents):
            a, b = orig.qtable, new.qtable
            assert a._target_seen and unseen not in a.states()
            assert b.states() == a.states()
            assert [b.q_values(s).tolist() for s in b.states()] == [
                a.q_values(s).tolist() for s in a.states()
            ]
            assert (b._target_ema, b._target_seen) == (a._target_ema, a._target_seen)
            assert b.q_values(unseen).tolist() == a.q_values(unseen).tolist()

    def test_a_file_without_target_means_loads_as_before(self, tmp_path):
        policy = trained_policy()
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        payload = json.loads(path.read_text())
        for record in payload["agents"]:
            del record["target_ema"], record["target_seen"]
        path.write_text(json.dumps(payload))
        loaded = load_policy(path)
        for orig, new in zip(policy.agents, loaded.agents):
            assert new.qtable.states() == orig.qtable.states()
            assert (new.qtable._target_ema, new.qtable._target_seen) == (0.0, False)

    def test_hyperparameters_survive(self, tmp_path):
        policy = trained_policy()
        path = tmp_path / "p.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.agents[0].config.discount == INTELLINOC.rl.discount
        assert loaded.agents[0].config.epsilon == INTELLINOC.rl.epsilon

    def test_loaded_policy_drives_a_network(self, tmp_path):
        from repro.config import FaultConfig, SimulationConfig
        from repro.noc.network import Network
        from repro.traffic.trace import Trace, TraceEvent

        policy = trained_policy(num_routers=64)
        path = tmp_path / "p.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        config = SimulationConfig(
            technique=INTELLINOC, seed=2, faults=FaultConfig(base_bit_error_rate=0.0)
        )
        events = [TraceEvent(i * 10, 0, 9, 4) for i in range(20)]
        net = Network(config, Trace(events), policy=loaded)
        net.run_to_completion(10_000)
        assert net.stats.packets_completed == 20


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError):
            load_policy(path)

    def test_empty_agent_list_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "format": 1, "num_actions": 5,
            "rl": {"learning_rate": 0.1, "discount": 0.9, "epsilon": 0.05,
                   "time_step": 1000, "num_bins": 5, "initial_mode": 1,
                   "max_table_entries": 350},
            "agents": [],
        }))
        with pytest.raises(ValueError):
            load_policy(path)
