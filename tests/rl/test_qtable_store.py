"""Oracle test for the Q-table's row store.

``QTable`` keeps its rows in one array indexed through an insertion-ordered
``dict[state, slot]``.  The reference below is the table as it was before
that layout — one ``OrderedDict`` of per-state rows — kept verbatim.  Random
sequences of every public operation, including a ``copy.deepcopy`` after
which both tables keep going and a ``clone_into`` a table with a smaller
budget, must leave the two in exactly the same state after every step:
same returned values, same LRU order, same counters, same floats.
"""

from __future__ import annotations

import copy
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl.qlearning import QTable


class OrderedDictQTable:
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

    def __deepcopy__(self, memo: dict) -> "OrderedDictQTable":
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

    def clone_into(self, other: "OrderedDictQTable") -> None:
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


ACTIONS = 3
STATES = [(i % 2, i // 2) for i in range(6)]
#: Few distinct rewards, so Q-values tie and argmax's tie-break is exercised.
REWARDS = [-2.0, -1.0, -1.0, 0.0]

state = st.sampled_from(STATES)
operation = st.one_of(
    st.tuples(st.just("q_values"), state),
    st.tuples(st.just("best_action"), state),
    st.tuples(st.just("max_q"), state),
    st.tuples(
        st.just("update"), state, st.integers(0, ACTIONS - 1),
        st.sampled_from(REWARDS), state,
    ),
    st.tuples(st.just("is_finite")),
    st.tuples(st.just("deepcopy")),
    st.tuples(st.just("clone_into"), st.integers(1, 3)),
)
#: Each step picks which live table (by index, modulo their count) acts.
steps = st.lists(st.tuples(st.integers(0, 7), operation), max_size=60)


def pair(max_entries, preferred_action):
    args = (ACTIONS, 0.5, 0.9)
    return (
        QTable(*args, max_entries=max_entries, preferred_action=preferred_action),
        OrderedDictQTable(*args, max_entries=max_entries, preferred_action=preferred_action),
    )


def plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def assert_same(table, ref):
    assert table.states() == ref.states()
    assert len(table) == len(ref)
    assert (table.evictions, table.updates) == (ref.evictions, ref.updates)
    assert (table._target_ema, table._target_seen) == (ref._target_ema, ref._target_seen)
    assert table.last_update_delta == ref.last_update_delta
    # Every row, read from the store without touching the LRU order.
    assert [table._q[slot].tolist() for slot in table._slots.values()] == [
        row.tolist() for row in ref._table.values()
    ]


@pytest.mark.parametrize("max_entries", [None, 1, 4])
@given(preferred_action=st.sampled_from([None, 1]), script=steps)
@settings(max_examples=150, deadline=None)
def test_the_store_matches_the_ordered_dict_table(max_entries, preferred_action, script):
    tables = [pair(max_entries, preferred_action)]
    for which, (name, *args) in script:
        table, ref = tables[which % len(tables)]
        if name == "deepcopy":
            tables.append((copy.deepcopy(table), copy.deepcopy(ref)))
        elif name == "clone_into":
            (cap,) = args
            target = pair(cap, preferred_action)
            table.clone_into(target[0])
            ref.clone_into(target[1])
            tables.append(target)
        else:
            got = getattr(table, name)(*args)
            want = getattr(ref, name)(*args)
            assert plain(got) == plain(want)
        # Every live table, not only the one that acted: copies own their rows.
        for live, oracle in tables:
            assert_same(live, oracle)
