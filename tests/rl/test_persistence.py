"""Tests for saving and loading a pre-trained master policy."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.config import INTELLINOC
from repro.core.intellinoc import pretrain_agents
from repro.exec.spec import training_technique
from repro.rl.persistence import (
    MAGIC,
    load_policy,
    policy_from_bytes,
    policy_to_bytes,
    save_policy,
)
from tests.rl.test_state import make_obs

SMALL = replace(INTELLINOC, noc=replace(INTELLINOC.noc, width=4, height=4))


def master(technique=SMALL, duration=2000):
    """A pre-trained master: agents sharing the one trained table."""
    return pretrain_agents(technique, duration=duration, seed=3)


def stored(policy):
    """What an artefact holds of a master: the training config, the one
    table ({state: slot} map in LRU order, rows in slot order, TD-target
    mean) and every agent's generator state."""
    table = policy.agents[0].qtable
    return (
        [a.config for a in policy.agents],
        list(table._slots.items()),
        table._q[: len(table)].tolist(),
        (table._target_ema, table._target_seen, table.max_entries),
        [a.policy._rng.bit_generator.state for a in policy.agents],
    )


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


def reframed(data, **changes):
    """The artefact with its JSON header's fields replaced by *changes*."""
    start = len(MAGIC) + 8
    end = start + int.from_bytes(data[len(MAGIC):start], "little")
    header = json.loads(data[start:end])
    header.update(changes)
    head = json.dumps(header).encode()
    return data[: len(MAGIC)] + len(head).to_bytes(8, "little") + head + data[end:]


class TestRoundTrip:
    def test_tables_survive_roundtrip(self, tmp_path):
        policy = master()
        path = tmp_path / "policy.policy"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert len(loaded.agents) == len(policy.agents)
        assert len({id(a.qtable) for a in loaded.agents}) == 1
        orig, new = policy.agents[0].qtable, loaded.agents[0].qtable
        assert len(orig) > 10 and len(new) == len(orig)
        for state in orig.states():
            assert np.allclose(new.q_values(state), orig.q_values(state))

    def test_reload_is_exact_and_starts_new_rows_where_the_original_does(
        self, tmp_path
    ):
        policy = master()
        path = tmp_path / "policy.policy"
        save_policy(policy, path)
        a, b = policy.agents[0].qtable, load_policy(path).agents[0].qtable
        unseen = (4,) * 16
        assert a._target_seen and unseen not in a.states()
        assert b.states() == a.states()
        assert [b.q_values(s).tolist() for s in b.states()] == [
            a.q_values(s).tolist() for s in a.states()
        ]
        assert (b._target_ema, b._target_seen) == (a._target_ema, a._target_seen)
        assert b.q_values(unseen).tolist() == a.q_values(unseen).tolist()

    def test_the_load_is_the_policy_bit_for_bit(self):
        """Law: a master round-trips exactly (LRU order, rows, TD-target
        mean, every generator state), so its deployments are equal agents
        making the same next decisions."""
        policy = master()
        data = policy_to_bytes(policy)
        loaded = policy_from_bytes(data)
        assert stored(loaded) == stored(policy)
        assert policy_to_bytes(loaded) == data
        ours, theirs = policy.deploy(SMALL), loaded.deploy(SMALL)
        assert everything(ours) == everything(theirs)
        obs = [make_obs(in_util=0.3, temp=330) for _ in policy.agents]
        assert ours.control_step(obs, 7000) == theirs.control_step(obs, 7000)
        assert everything(ours) == everything(theirs)
        assert stored(loaded) == stored(policy)  # deploys leave the masters

    def test_the_one_table_is_stored_once_and_deployed_apart(self):
        """Law: two deploys of one master own distinct tables and
        generators, and what one learns reaches neither the master nor the
        other."""
        policy = master()
        table = policy.agents[0].qtable
        data = policy_to_bytes(policy)
        assert data.endswith(table._q[: len(table)].astype("<f8").tobytes())
        before = stored(policy)
        first, second = policy.deploy(SMALL), policy.deploy(SMALL)
        agents = first.agents + second.agents
        assert len({id(a.qtable) for a in agents}) == len(agents)
        assert len({id(a.qtable._q) for a in agents}) == len(agents)
        assert len({id(a.policy._rng) for a in agents}) == len(agents)
        obs = [make_obs(in_util=0.02 * i, temp=330) for i in range(len(agents) // 2)]
        for step in range(4):
            first.control_step(obs, step * 1000)
        assert stored(policy) == before
        assert everything(second) == everything(policy.deploy(SMALL))
        assert everything(first) != everything(second)

    def test_hyperparameters_survive(self, tmp_path):
        """The master keeps the config it trained with; a deployment runs
        the cell's own."""
        path = tmp_path / "p.policy"
        save_policy(master(SMALL.with_rl(discount=0.7)), path)
        loaded = load_policy(path)
        trained = training_technique(SMALL.with_rl(discount=0.7)).rl
        assert {a.config for a in loaded.agents} == {trained}
        assert {a.policy.epsilon for a in loaded.agents} == {trained.epsilon}
        cell = SMALL.with_rl(discount=0.7, time_step=1500, epsilon=0.1)
        deployed = loaded.deploy(cell)
        assert {a.config for a in deployed.agents} == {cell.rl}
        assert {a.policy.epsilon for a in deployed.agents} == {0.1}

    def test_reward_weights_survive_equal_and_hashable(self):
        """JSON has no tuples: the weights come back as a list, and the
        config stores them as a tuple again."""
        technique = INTELLINOC.with_rl(reward_weights=(0, 1, 1), time_step=200)
        policy = pretrain_agents(technique, duration=600, seed=3)
        loaded = policy_from_bytes(policy_to_bytes(policy))
        assert stored(loaded) == stored(policy)
        config, original = loaded.agents[0].config, policy.agents[0].config
        assert config == original and hash(config) == hash(original)
        assert config.reward_weights == (0.0, 1.0, 1.0)

    def test_loaded_policy_drives_a_network(self, tmp_path):
        from repro.config import FaultConfig, SimulationConfig
        from repro.noc.network import Network
        from repro.traffic.trace import Trace, TraceEvent

        path = tmp_path / "p.policy"
        save_policy(master(INTELLINOC, duration=600), path)
        loaded = load_policy(path)
        config = SimulationConfig(
            technique=INTELLINOC, seed=2, faults=FaultConfig(base_bit_error_rate=0.0)
        )
        events = [TraceEvent(i * 10, 0, 9, 4) for i in range(20)]
        net = Network(config, Trace(events), policy=loaded.deploy(INTELLINOC))
        net.run_to_completion(10_000)
        assert net.stats.packets_completed == 20


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError, match="not a policy artefact"):
            load_policy(path)
        data = policy_to_bytes(master())
        with pytest.raises(ValueError, match="unsupported policy format 2"):
            policy_from_bytes(reframed(data, format=2))
        with pytest.raises(ValueError, match="trailing"):
            policy_from_bytes(data + b"\0")

    def test_empty_agent_list_rejected(self, tmp_path):
        path = tmp_path / "empty.policy"
        path.write_bytes(reframed(policy_to_bytes(master()), rngs=[]))
        with pytest.raises(ValueError, match="no agents"):
            load_policy(path)

    def test_a_deployed_policy_is_refused(self):
        """Only a master is an artefact: a deployment's agents own private
        tables, which the format cannot hold."""
        with pytest.raises(ValueError, match="do not share one table"):
            policy_to_bytes(master().deploy(SMALL))
