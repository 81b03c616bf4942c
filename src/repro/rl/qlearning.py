"""Sparse tabular Q-learning (Section 5, Fig. 8).

The paper observes that although the nominal state space is 5^16, fewer
than ~300 states are ever visited (features are correlated), and budgets a
350-entry hardware table per router.  The table here is keyed by the
discretized state tuple, with the same budget enforced: when full, new
states evict the least-recently-used entry (a fresh hardware table would
simply miss; LRU keeps the software behavior deterministic and close).

Storage is one ``float64`` array of shape (capacity, num_actions) plus an
insertion-ordered ``dict[state, slot]`` whose order is the LRU order.  The
used slots are always exactly ``range(len(table))``: a miss past the budget
reuses the evicted key's slot, and growth doubles the capacity.  A copy is
therefore one dict copy plus one ``ndarray.copy()`` of the used prefix.
"""

from __future__ import annotations

import copy

import numpy as np

#: Rows a fresh table has room for before its first growth.
_INITIAL_CAPACITY = 16


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
        self._slots: dict[tuple, int] = {}
        self._q = np.empty((_INITIAL_CAPACITY, num_actions))
        self.evictions = 0
        self.updates = 0
        # Telemetry diagnostic: signed Q(s,a) change of the most recent
        # update.  Captured *inside* update() because any extra row access
        # from outside would disturb the LRU order and change evictions.
        self.last_update_delta = 0.0

    def _row(self, state: tuple) -> np.ndarray:
        slots = self._slots
        slot = slots.pop(state, None)
        if slot is None:
            if self.max_entries is not None and len(slots) >= self.max_entries:
                slot = slots.pop(next(iter(slots)))
                self.evictions += 1
            else:
                slot = len(slots)
                if slot == len(self._q):
                    grown = np.empty((max(2 * slot, _INITIAL_CAPACITY), self.num_actions))
                    grown[:slot] = self._q
                    self._q = grown
            init = self._target_ema if self._target_seen else 0.0
            row = self._q[slot]
            row[:] = init
            if self.preferred_action is not None:
                row[self.preferred_action] += max(1e-6, abs(init) * 1e-3)
        else:
            row = self._q[slot]
        slots[state] = slot
        return row

    def q_values(self, state: tuple) -> np.ndarray:
        """Q(s, .) — creates the row on first visit (zero-initialized).

        The result is a view into the store: writes through it land in the
        table, and it stays valid until the next call that creates a row.
        """
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
        return bool(np.isfinite(self._q[: len(self._slots)]).all())

    def __len__(self) -> int:
        return len(self._slots)

    def states(self) -> list[tuple]:
        return list(self._slots)

    def __deepcopy__(self, memo: dict) -> "QTable":
        """A copy that shares the state tuples (immutable) and owns its
        rows, in the same LRU order, with every scalar field.

        ``copy.deepcopy`` of a pre-trained policy (one table per router)
        otherwise walks tens of thousands of key tuples element by element.
        """
        clone = copy.copy(self)
        # dict(), not .copy(): it leaves out the holes that LRU moves punch
        # in the key table, which would otherwise double the dict's size.
        clone._slots = dict(self._slots)
        clone._q = self._q[: len(self._slots)].copy()
        return clone

    def clone_into(self, other: "QTable") -> None:
        """Copy learned values into *other* (used to deploy a pre-trained
        policy onto a fresh network, Section 6.3's train-then-test split).

        Past *other*'s budget only the most recently used rows are kept,
        their slots renumbered in LRU order so that they stay exactly
        ``range(len(other))``.
        """
        n = len(self._slots)
        if other.max_entries is None or n <= other.max_entries:
            # Shares the slot ints too: above 256 each is its own object.
            other._slots = dict(self._slots)
            other._q = self._q[:n].copy()
        else:
            kept = list(self._slots.items())[n - other.max_entries:]
            other._slots = {state: i for i, (state, _) in enumerate(kept)}
            other._q = self._q[[slot for _, slot in kept]]
        other._target_ema = self._target_ema
        other._target_seen = self._target_seen
