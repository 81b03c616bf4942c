"""Sparse tabular Q-learning (Section 5, Fig. 8).

The paper observes that although the nominal state space is 5^16, fewer
than ~300 states are ever visited (features are correlated), and budgets a
350-entry hardware table per router.  The table here is a dict keyed by
the discretized state tuple, with the same budget enforced: when full, new
states evict the least-recently-used entry (a fresh hardware table would
simply miss; LRU keeps the software behavior deterministic and close).
"""

from __future__ import annotations

import copy
from collections import OrderedDict

import numpy as np


class QTable:
    """Action-value table for one router agent."""

    def __init__(
        self,
        num_actions: int,
        learning_rate: float,
        discount: float,
        max_entries: int | None = None,
        preferred_action: int | None = None,
    ):
        if num_actions < 1:
            raise ValueError("need at least one action")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning rate must be in (0, 1]")
        if not 0.0 <= discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        self.num_actions = num_actions
        self.learning_rate = learning_rate
        self.discount = discount
        self.max_entries = max_entries
        # Eq. 1 rewards are always negative, so a zero-initialized row makes
        # every *unexplored* action look better than any explored one and
        # argmax degenerates into "try whatever has not been punished yet".
        # New rows are therefore initialized at the running mean of observed
        # TD targets (neutral realism), with an epsilon-sized nudge toward
        # the hardware's initial operation mode for tie-breaking.
        self.preferred_action = preferred_action
        self._target_ema = 0.0
        self._target_seen = False
        self._table: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.evictions = 0
        self.updates = 0
        # Telemetry diagnostic: signed Q(s,a) change of the most recent
        # update.  Captured *inside* update() because any extra row access
        # from outside would disturb the LRU order and change evictions.
        self.last_update_delta = 0.0

    def _row(self, state: tuple) -> np.ndarray:
        row = self._table.get(state)
        if row is None:
            if self.max_entries is not None and len(self._table) >= self.max_entries:
                self._table.popitem(last=False)
                self.evictions += 1
            init = self._target_ema if self._target_seen else 0.0
            row = np.full(self.num_actions, init)
            if self.preferred_action is not None:
                row[self.preferred_action] += max(1e-6, abs(init) * 1e-3)
            self._table[state] = row
        else:
            self._table.move_to_end(state)
        return row

    def q_values(self, state: tuple) -> np.ndarray:
        """Q(s, .) — creates the row on first visit (zero-initialized)."""
        return self._row(state)

    def best_action(self, state: tuple) -> int:
        """argmax_a Q(s, a); ties break toward the lowest action index."""
        return int(np.argmax(self._row(state)))

    def max_q(self, state: tuple) -> float:
        return float(np.max(self._row(state)))

    def update(self, state: tuple, action: int, reward: float, next_state: tuple) -> float:
        """Eq. 2: ``Q(s,a) = (1-a)Q(s,a) + a[r + g max_a' Q(s',a')]``.

        Returns the new Q(s, a).
        """
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} out of range")
        target = reward + self.discount * self.max_q(next_state)
        if self._target_seen:
            self._target_ema += 0.05 * (target - self._target_ema)
        else:
            self._target_ema = target
            self._target_seen = True
        row = self._row(state)
        old = float(row[action])
        row[action] = (1.0 - self.learning_rate) * row[action] + self.learning_rate * target
        self.updates += 1
        self.last_update_delta = float(row[action]) - old
        return float(row[action])

    def is_finite(self) -> bool:
        """Whether every stored action value is a finite number.

        A NaN/inf row means a reward or TD target blew up; the sanitizer
        checks this because argmax over NaN silently degenerates.
        """
        for row in self._table.values():
            if not np.isfinite(row).all():
                return False
        return True

    def __len__(self) -> int:
        return len(self._table)

    def states(self) -> list[tuple]:
        return list(self._table.keys())

    def __deepcopy__(self, memo: dict) -> "QTable":
        """A copy that shares the state tuples (immutable) and owns its
        rows, in the same LRU order, with every scalar field.

        ``copy.deepcopy`` of a pre-trained policy (one table per router)
        otherwise walks tens of thousands of key tuples element by element.
        """
        clone = copy.copy(self)
        clone._table = OrderedDict(
            (state, row.copy()) for state, row in self._table.items()
        )
        return clone

    def clone_into(self, other: "QTable") -> None:
        """Copy learned values into *other* (used to deploy a pre-trained
        policy onto a fresh network, Section 6.3's train-then-test split)."""
        other._table = OrderedDict(
            (state, row.copy()) for state, row in self._table.items()
        )
        other._target_ema = self._target_ema
        other._target_seen = self._target_seen
        if other.max_entries is not None:
            while len(other._table) > other.max_entries:
                other._table.popitem(last=False)
