"""Per-router RL agent (Fig. 8's three-stage loop).

At every control time step the agent:

1. looks up the discretized state in its local Q-table,
2. selects the next operation mode (epsilon-greedy over Q(s, .)),
3. on the *following* step, computes the Eq. 1 reward its previous action
   earned and applies the Eq. 2 temporal-difference update.
"""

from __future__ import annotations

import numpy as np

from repro.config import OPERATION_MODES, RlConfig
from repro.rl.policy import EpsilonGreedyPolicy
from repro.rl.qlearning import QTable
from repro.rl.reward import reward_components
from repro.rl.state import RouterObservation, StateExtractor

class RouterAgent:
    """The learner/decision-maker of one router."""

    def __init__(self, router: int, config: RlConfig, rng: np.random.Generator):
        self.router = router
        self.config = config
        self.extractor = StateExtractor(config.num_bins)
        self.qtable = QTable(
            len(OPERATION_MODES),
            config.learning_rate,
            config.discount,
            config.max_table_entries,
            preferred_action=config.initial_mode,
        )
        self.policy = EpsilonGreedyPolicy(config.epsilon, len(OPERATION_MODES), rng)
        self._prev_state: tuple | None = None
        self._prev_action: int | None = None
        self.last_reward = 0.0
        self.steps = 0
        # Telemetry diagnostics refreshed by decide(); pure observations —
        # none of these feed back into the learning loop.
        self.last_reward_terms = (0.0, 0.0, 0.0)  # weighted (latency, power, aging)
        self.last_q_delta = 0.0
        self.last_explored = False
        self.last_action = config.initial_mode

    def decide(self, obs: RouterObservation) -> int:
        """One control step: learn from the last action, pick the next mode."""
        state = self.extractor.extract(obs)
        self.last_reward_terms = latency, power, aging = reward_components(
            obs.epoch_latency, obs.epoch_power_w, obs.aging_factor,
            self.config.reward_weights,
        )
        self.last_reward = reward = latency + power + aging
        self.last_q_delta = 0.0
        if self._prev_state is not None and self._prev_action is not None:
            self.qtable.update(self._prev_state, self._prev_action, reward, state)
            self.last_q_delta = self.qtable.last_update_delta
        action = self.policy.select(self.qtable.q_values(state))
        self.last_explored = self.policy.last_was_exploration
        self.last_action = action
        self._prev_state = state
        self._prev_action = action
        self.steps += 1
        return action
