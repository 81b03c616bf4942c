"""Tests for policy save/load."""

import json

import numpy as np
import pytest

from repro.config import INTELLINOC
from repro.control.policies import make_policy
from repro.core.intellinoc import pretrain_agents
from repro.rl.persistence import (
    MAGIC,
    load_policy,
    policy_from_bytes,
    policy_to_bytes,
    save_policy,
)
from repro.utils.rng import RngFactory
from tests.rl.test_state import make_obs


def trained_policy(num_routers=4):
    policy = make_policy(INTELLINOC, num_routers, RngFactory(3))
    # Drive a few decisions so tables hold real values.
    for step in range(6):
        obs = [make_obs(in_util=0.02 * step, temp=320 + step) for _ in range(num_routers)]
        policy.control_step(obs, step * 1000)
    return policy


def everything(policy):
    """Every field of every agent, its table (rows in slot order, the
    {state: slot} map in LRU order), policy and generator state."""
    parts = ("config", "extractor", "qtable", "policy")
    return [
        (
            {k: v for k, v in vars(a).items() if k not in parts},
            a.config, vars(a.extractor),
            {k: v for k, v in vars(a.policy).items() if k != "_rng"},
            a.policy._rng.bit_generator.state,
            {k: v for k, v in vars(a.qtable).items() if k not in ("_slots", "_q")},
            list(a.qtable._slots.items()), a.qtable._q[: len(a.qtable)].tolist(),
        )
        for a in policy.agents
    ]


def reframed(data, edit=None, **changes):
    """The artefact with its JSON header edited (by *edit*, then *changes*)."""
    start = len(MAGIC) + 8
    end = start + int.from_bytes(data[len(MAGIC):start], "little")
    header = json.loads(data[start:end])
    if edit is not None:
        edit(header)
    header.update(changes)
    head = json.dumps(header).encode()
    return data[: len(MAGIC)] + len(head).to_bytes(8, "little") + head + data[end:]


class TestRoundTrip:
    def test_tables_survive_roundtrip(self, tmp_path):
        policy = trained_policy()
        path = tmp_path / "policy.policy"
        save_policy(policy, path)
        loaded = load_policy(path)
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
        path = tmp_path / "policy.policy"
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

    def test_the_load_is_the_policy_bit_for_bit(self):
        """Generator states included: a load no longer re-seeds exploration,
        so the next decisions are the original's."""
        policy = trained_policy()
        loaded = policy_from_bytes(policy_to_bytes(policy))
        assert everything(loaded) == everything(policy)
        obs = [make_obs(in_util=0.3, temp=330) for _ in policy.agents]
        assert loaded.control_step(obs, 7000) == policy.control_step(obs, 7000)
        assert everything(loaded) == everything(policy)
        assert policy_to_bytes(loaded) == policy_to_bytes(policy)

    def test_identical_tables_are_stored_once_and_loaded_apart(self):
        policy = trained_policy()
        for agent in policy.agents[1:]:
            policy.agents[0].qtable.clone_into(agent.qtable)
        data = policy_to_bytes(policy)
        loaded = policy_from_bytes(data)
        assert everything(loaded) == everything(policy)
        tables = [a.qtable for a in loaded.agents]
        assert len({id(t._q) for t in tables}) == len(tables)
        tables[0].update(tables[0].states()[0], 2, -9.0, tables[0].states()[1])
        assert tables[1]._q.tolist() == policy.agents[1].qtable._q[:len(tables[1])].tolist()
        assert len(data) < len(policy_to_bytes(trained_policy()))

    def test_hyperparameters_survive(self, tmp_path):
        policy = trained_policy()
        path = tmp_path / "p.policy"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.agents[0].config.discount == INTELLINOC.rl.discount
        assert loaded.agents[0].config.epsilon == INTELLINOC.rl.epsilon

    def test_reward_weights_survive_equal_and_hashable(self):
        """JSON has no tuples: the weights come back as a list, and the
        config stores them as a tuple again."""
        technique = INTELLINOC.with_rl(reward_weights=(0, 1, 1), time_step=200)
        policy = pretrain_agents(technique, duration=600, seed=3)
        loaded = policy_from_bytes(policy_to_bytes(policy))
        assert everything(loaded) == everything(policy)
        config, original = loaded.agents[0].config, policy.agents[0].config
        assert config == original and hash(config) == hash(original)
        assert config.reward_weights == (0.0, 1.0, 1.0)

    def test_an_artefact_without_weights_loads_the_papers_reward(self):
        def drop_weights(header):
            for record in header["agents"]:
                del record["config"]["reward_weights"]

        loaded = policy_from_bytes(reframed(policy_to_bytes(trained_policy()), drop_weights))
        assert all(a.config.reward_weights == (1.0, 1.0, 1.0) for a in loaded.agents)

    def test_loaded_policy_drives_a_network(self, tmp_path):
        from repro.config import FaultConfig, SimulationConfig
        from repro.noc.network import Network
        from repro.traffic.trace import Trace, TraceEvent

        policy = trained_policy(num_routers=64)
        path = tmp_path / "p.policy"
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
        with pytest.raises(ValueError, match="not a policy artefact"):
            load_policy(path)
        data = policy_to_bytes(trained_policy())
        with pytest.raises(ValueError, match="unsupported policy format 1"):
            policy_from_bytes(reframed(data, format=1))
        with pytest.raises(ValueError, match="trailing"):
            policy_from_bytes(data + b"\0")

    def test_empty_agent_list_rejected(self, tmp_path):
        path = tmp_path / "empty.policy"
        path.write_bytes(reframed(policy_to_bytes(trained_policy()), agents=[]))
        with pytest.raises(ValueError, match="no agents"):
            load_policy(path)
