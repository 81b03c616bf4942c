"""Tests for epsilon-greedy selection and the router agent."""

import numpy as np
import pytest

from repro.config import OPERATION_MODES, RlConfig
from repro.rl.agent import RouterAgent
from repro.rl.policy import EpsilonGreedyPolicy
from tests.rl.test_state import make_obs


class TestEpsilonGreedy:
    def test_greedy_at_zero_epsilon(self):
        policy = EpsilonGreedyPolicy(0.0, 3, np.random.default_rng(0))
        q = np.array([0.1, 0.9, 0.2])
        assert all(policy.select(q) == 1 for _ in range(50))

    def test_fully_random_at_one(self):
        policy = EpsilonGreedyPolicy(1.0, 3, np.random.default_rng(0))
        q = np.array([0.0, 0.0, 1.0])
        picks = {policy.select(q) for _ in range(100)}
        assert picks == {0, 1, 2}

    def test_exploration_rate_statistics(self):
        policy = EpsilonGreedyPolicy(0.2, 4, np.random.default_rng(1))
        q = np.zeros(4)
        explored = 0
        for _ in range(2000):
            policy.select(q)
            explored += policy.last_was_exploration
        rate = explored / 2000
        assert 0.15 < rate < 0.25

    def test_wrong_qvector_length(self):
        policy = EpsilonGreedyPolicy(0.1, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            policy.select(np.zeros(5))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            EpsilonGreedyPolicy(1.5, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            EpsilonGreedyPolicy(0.1, 0, np.random.default_rng(0))


class TestRouterAgent:
    def agent(self, **rl_kwargs):
        cfg = RlConfig(**rl_kwargs) if rl_kwargs else RlConfig()
        return RouterAgent(0, cfg, np.random.default_rng(7))

    def test_decide_returns_valid_mode(self):
        agent = self.agent()
        mode = agent.decide(make_obs())
        assert 0 <= mode < len(OPERATION_MODES)

    def test_learning_happens_on_second_step(self):
        agent = self.agent(epsilon=0.0)
        agent.decide(make_obs(in_util=0.01))
        before = agent.qtable.updates
        agent.decide(make_obs(in_util=0.02))
        assert agent.qtable.updates == before + 1

    def test_reward_shapes_future_choices(self):
        """An action punished hard in a state loses to the alternatives."""
        agent = self.agent(epsilon=0.0)
        state_obs = make_obs(in_util=0.05)
        first = agent.decide(state_obs)
        # Give that action a terrible outcome (huge latency/power).
        bad_obs = make_obs(in_util=0.05, epoch_latency=1e6, epoch_power_w=10.0)
        for _ in range(30):
            agent.decide(bad_obs)
        # After many punished steps in the same state, the agent has
        # down-weighted its early choices relative to the initial estimate.
        q_row = agent.qtable.q_values(agent.extractor.extract(bad_obs))
        assert q_row.min() < 0
