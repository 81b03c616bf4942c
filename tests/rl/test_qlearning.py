"""Tests for sparse tabular Q-learning."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.config import INTELLINOC, RlConfig
from repro.rl.agent import RouterAgent
from repro.rl.qlearning import QTable
from tests.rl.test_state import make_obs

#: The row store's two fields; every other attribute of a table is a scalar.
STORE = ("_slots", "_q")


def table(**kwargs):
    defaults = dict(num_actions=3, learning_rate=0.5, discount=0.9)
    defaults.update(kwargs)
    return QTable(**defaults)


class TestUpdate:
    def test_eq2_temporal_difference(self):
        q = table()
        s, s2 = (0,), (1,)
        q.q_values(s)  # materialize rows at zero before any target exists
        q.q_values(s2)
        new = q.update(s, 1, reward=-2.0, next_state=s2)
        # (1-0.5)*0 + 0.5*(-2 + 0.9*0) = -1.
        assert new == pytest.approx(-1.0)
        assert q.q_values(s)[1] == pytest.approx(-1.0)

    def test_bootstraps_from_next_state(self):
        q = table(learning_rate=1.0)
        q.q_values((1,))
        q.q_values((2,))
        q.update((1,), 0, reward=10.0, next_state=(2,))
        q.update((0,), 0, reward=0.0, next_state=(1,))
        assert q.q_values((0,))[0] == pytest.approx(0.9 * 10.0)

    def test_convergence_on_self_loop(self):
        """With a single action, updates converge to r / (1 - gamma); on a
        two-state, two-action chain, to the chain's closed-form Q*.

        The chain is what tells ``max`` from any other reduction of the
        next state's row: a mutant bootstrapping on the row's mean (or its
        min) still passes the one-action self-loop, not the chain."""
        q = QTable(1, 0.2, 0.5)
        s = (0,)
        for _ in range(500):
            q.update(s, 0, reward=-1.0, next_state=s)
        assert q.q_values(s)[0] == pytest.approx(-2.0, rel=1e-3)

        # Action 0 stays, action 1 moves to the other state; a deterministic
        # reward per (state, action).  Optimal: A moves, B stays.
        gamma = 0.5
        a, b = (0,), (1,)
        reward = {(a, 0): -3.0, (a, 1): -1.0, (b, 0): -0.5, (b, 1): -4.0}
        v_b = reward[b, 0] / (1 - gamma)  # B stays forever
        v_a = reward[a, 1] + gamma * v_b  # A moves once, then stays
        q_star = {
            (a, 0): reward[a, 0] + gamma * v_a,
            (a, 1): v_a,
            (b, 0): v_b,
            (b, 1): reward[b, 1] + gamma * v_a,
        }
        assert q_star[a, 0] < q_star[a, 1] and q_star[b, 1] < q_star[b, 0]
        q = QTable(2, 0.2, gamma)
        for _ in range(500):
            for (state, action), r in reward.items():
                after = state if action == 0 else (b if state == a else a)
                q.update(state, action, reward=r, next_state=after)
        for (state, action), expected in q_star.items():
            assert q.q_values(state)[action] == pytest.approx(expected, rel=1e-6)

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            table().update((0,), 5, 0.0, (0,))


class TestRowInitialization:
    def test_new_rows_adopt_target_scale(self):
        """With uniformly negative rewards, unexplored actions must not
        look better than explored ones (the mode-0 degeneracy)."""
        q = table(preferred_action=1)
        s = (0,)
        for _ in range(20):
            q.update(s, 0, reward=-10.0, next_state=s)
        fresh = q.q_values((99,))
        assert fresh.max() < -1.0  # initialized near the target EMA

    def test_preferred_action_breaks_ties(self):
        q = table(preferred_action=1)
        assert q.best_action((0,)) == 1

    def test_without_preference_ties_go_low(self):
        q = table()
        assert q.best_action((0,)) == 0


class TestCapacity:
    def test_lru_eviction_at_budget(self):
        q = table(max_entries=2)
        q.q_values((0,))
        q.q_values((1,))
        q.q_values((2,))
        assert len(q) == 2
        assert q.evictions == 1
        assert (0,) not in q.states()

    def test_touch_refreshes_lru_order(self):
        q = table(max_entries=2)
        q.q_values((0,))
        q.q_values((1,))
        q.q_values((0,))  # refresh
        q.q_values((2,))
        assert (0,) in q.states() and (1,) not in q.states()

    def test_unbounded_by_default(self):
        q = table()
        for i in range(1000):
            q.q_values((i,))
        assert len(q) == 1000


class TestClone:
    def test_clone_copies_values_not_references(self):
        q = table()
        q.update((0,), 1, -3.0, (0,))
        other = table()
        q.clone_into(other)
        assert np.array_equal(other.q_values((0,)), q.q_values((0,)))
        other.update((0,), 1, -100.0, (0,))
        assert other.q_values((0,))[1] != q.q_values((0,))[1]

    def test_clone_respects_target_capacity(self):
        q = table()
        for i in range(10):
            q.q_values((i,))
        small = table(max_entries=4)
        q.clone_into(small)
        assert len(small) == 4


class TestDeepCopy:
    """`copy.deepcopy` of a table (the in-process copy of a policy, beside
    the `clone_into` copies `RlPolicy.deploy` hands a campaign cell) shares
    the state tuples, nothing else."""

    def trained(self):
        q = table(max_entries=4, preferred_action=1)
        for i in range(9):
            q.update((i % 4, 7), i % 3, -1.0 - i, ((i + 1) % 4, 7))
        q.q_values((0, 7))  # touch: LRU order differs from insertion order
        return q

    def test_same_rows_in_the_same_order_with_every_scalar(self):
        q = self.trained()
        clone = copy.deepcopy(q)
        assert clone.states() == q.states()
        assert list(clone._slots.items()) == list(q._slots.items())
        for state, c_state in zip(q._slots, clone._slots):
            assert c_state is state
        # The copy holds the used prefix only, in its own memory.
        assert np.array_equal(clone._q, q._q[: len(q)])
        assert not np.shares_memory(clone._q, q._q)
        scalars = {k: v for k, v in vars(q).items() if k not in STORE}
        assert {k: v for k, v in vars(clone).items() if k not in STORE} == scalars
        assert q.evictions == 0 and q.updates == 9 and q._target_seen

    def test_learning_and_evicting_in_the_copy_leaves_the_master(self):
        q = self.trained()
        before = copy.copy(vars(q))
        rows = [(state, list(q._q[slot])) for state, slot in q._slots.items()]
        clone = copy.deepcopy(q)
        clone.update((0, 7), 2, -50.0, (9, 9))  # new row: evicts the LRU one
        clone.q_values((8, 8))
        assert clone.evictions == 2 and clone.states() != q.states()
        assert [(s, list(q._q[slot])) for s, slot in q._slots.items()] == rows
        assert {k: v for k, v in vars(q).items() if k not in STORE} == {
            k: v for k, v in before.items() if k not in STORE
        }

    def test_an_agent_copy_owns_its_table_and_its_rng(self):
        agent = RouterAgent(3, RlConfig(epsilon=0.5), np.random.default_rng(7))
        for util in (0.01, 0.2, 0.4):
            agent.decide(make_obs(in_util=util))
        rng_state = agent.policy._rng.bit_generator.state
        ema, order = agent.qtable._target_ema, agent.qtable.states()
        clone = copy.deepcopy(agent)
        assert clone.qtable is not agent.qtable
        assert clone.policy._rng.bit_generator.state == rng_state
        for util in (0.3, 0.05, 0.6, 0.3):
            clone.decide(make_obs(in_util=util))
        assert agent.policy._rng.bit_generator.state == rng_state
        assert agent.qtable._target_ema == ema and agent.qtable.states() == order
        assert clone.qtable._target_ema != ema

    def test_a_pretrained_cell_runs_the_same_from_a_generic_deep_copy(self, monkeypatch):
        """The cell's metrics from a load of the master's artefact equal
        those from the table's own `__deepcopy__` and from `copy.deepcopy`'s
        element-by-element walk of the same master (so no run disturbed it)."""
        from repro.exec import worker
        from repro.exec.spec import parsec_cell
        from repro.rl.persistence import policy_from_bytes, policy_to_bytes

        technique = replace(
            INTELLINOC.with_rl(time_step=200),  # six control steps in the run
            noc=replace(INTELLINOC.noc, width=4, height=4),
        )
        spec = parsec_cell(technique, "swa", duration=1200, seed=3, pretrain_cycles=1500)
        master = worker.pretrain(spec.pretraining)
        artefact = policy_to_bytes(master)
        trained = [(a.steps, a.qtable.updates) for a in master.agents]
        loaded = worker.execute_cell(spec, policy_from_bytes(artefact)).to_dict()
        assert worker.execute_cell(spec, copy.deepcopy(master)).to_dict() == loaded
        monkeypatch.delattr(QTable, "__deepcopy__")
        assert worker.execute_cell(spec, copy.deepcopy(master)).to_dict() == loaded
        assert [(a.steps, a.qtable.updates) for a in master.agents] == trained
        assert policy_to_bytes(master) == artefact


class TestValidation:
    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            QTable(0, 0.1, 0.9)
        with pytest.raises(ValueError):
            QTable(3, 0.0, 0.9)
        with pytest.raises(ValueError):
            QTable(3, 0.1, 1.5)
