"""Epsilon-greedy action selection (Section 5).

With probability epsilon the agent explores a uniformly random action;
otherwise it exploits the greedy action.  Fig. 18(b) sweeps epsilon from 0
(always the initial/greedy mode) to 1 (fully random).
"""

from __future__ import annotations

import numpy as np


class EpsilonGreedyPolicy:
    """Stateless epsilon-greedy selector over discrete actions."""

    def __init__(self, epsilon: float, num_actions: int, rng: np.random.Generator):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if num_actions < 1:
            raise ValueError("need at least one action")
        self.epsilon = epsilon
        self.num_actions = num_actions
        self._rng = rng
        # Telemetry diagnostic: whether the last select() explored.
        self.last_was_exploration = False

    def select(self, q_values: np.ndarray) -> int:
        """Pick an action given Q(s, .)."""
        if len(q_values) != self.num_actions:
            raise ValueError("q_values length does not match action space")
        if self._rng.random() < self.epsilon:
            self.last_was_exploration = True
            return int(self._rng.integers(self.num_actions))
        self.last_was_exploration = False
        return int(np.argmax(q_values))
