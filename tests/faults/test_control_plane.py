"""Tests for control-plane (Q-table) fault injection."""

import math

import numpy as np
import pytest

from repro.faults.control_plane import corrupt_random_entry, flip_float_bit
from repro.rl.qlearning import QTable


def table_divergence(reference: QTable, corrupted: QTable) -> float:
    """Mean |dQ| over the states both tables know — a repair metric.

    Online learning pulls corrupted entries back toward the TD target, so
    divergence shrinks as the agent keeps running.
    """
    common = set(reference.states()) & set(corrupted.states())
    if not common:
        return 0.0
    total = 0.0
    for state in common:
        total += float(
            np.abs(reference.q_values(state) - corrupted.q_values(state)).mean()
        )
    return total / len(common)


def table_with_entries(n=10):
    table = QTable(5, 0.1, 0.9)
    for i in range(n):
        table.update((i,), i % 5, reward=-float(i), next_state=(i,))
    return table


class TestFlipFloatBit:
    def test_flip_is_involutive_for_finite_results(self):
        v = 3.14159
        flipped = flip_float_bit(v, 7)
        assert flip_float_bit(flipped, 7) == v

    def test_sign_bit_negates(self):
        assert flip_float_bit(2.0, 63) == -2.0

    def test_nan_clamped_to_zero(self):
        # Setting all exponent bits of a large value can produce inf/NaN.
        v = 1.5
        out = flip_float_bit(v, 62)  # top exponent bit -> huge or inf
        assert math.isfinite(out)

    def test_bit_range_checked(self):
        with pytest.raises(ValueError):
            flip_float_bit(1.0, 64)


class TestInjector:
    def test_empty_table_cannot_be_corrupted(self):
        assert not corrupt_random_entry(QTable(5, 0.1, 0.9), np.random.default_rng(0))

    def test_corruption_changes_some_value(self):
        table = table_with_entries()
        reference = QTable(5, 0.1, 0.9)
        table.clone_into(reference)
        rng = np.random.default_rng(1)
        landed = [corrupt_random_entry(table, rng, high_bits_only=True)
                  for _ in range(20)]
        assert all(landed)
        assert table_divergence(reference, table) > 0.0

    def test_online_learning_repairs_corruption(self):
        """After upsets, continued TD updates pull values back."""
        table = table_with_entries(4)
        reference = QTable(5, 0.1, 0.9)
        table.clone_into(reference)
        rng = np.random.default_rng(2)
        for _ in range(10):
            corrupt_random_entry(table, rng, high_bits_only=True)
        damaged = table_divergence(reference, table)
        assert damaged > 0
        # Re-run the same experience stream on both tables.
        for _ in range(300):
            for i in range(4):
                for a in range(5):
                    table.update((i,), a, reward=-float(i), next_state=(i,))
                    reference.update((i,), a, reward=-float(i), next_state=(i,))
        repaired = table_divergence(reference, table)
        # TD contraction at alpha=0.1, gamma=0.9 shrinks errors by
        # ~(1 - alpha(1-gamma)) per sweep; 300 sweeps -> ~5-20% residual.
        assert repaired < damaged * 0.25


class TestDivergence:
    def test_identical_tables_diverge_zero(self):
        table = table_with_entries()
        clone = QTable(5, 0.1, 0.9)
        table.clone_into(clone)
        assert table_divergence(table, clone) == 0.0

    def test_disjoint_tables_diverge_zero(self):
        a = QTable(5, 0.1, 0.9)
        a.q_values((1,))
        b = QTable(5, 0.1, 0.9)
        b.q_values((2,))
        assert table_divergence(a, b) == 0.0
