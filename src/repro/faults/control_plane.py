"""Control-plane fault injection (the paper's stated future work).

Section 6 notes: "In future work, we will consider faults in the control
circuit, routing table, state-action table, and other sources."  This
module provides that capability for the state-action table: soft errors
flip bits in stored Q-values, and the experimenter can measure how quickly
online temporal-difference learning repairs the damage.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.rl.qlearning import QTable


def flip_float_bit(value: float, bit: int) -> float:
    """Flip one bit of an IEEE-754 double.

    NaN/Inf results are clamped to 0.0 — a hardware Q-table would store
    fixed-point values where every pattern is a number; the clamp keeps
    the software model in that envelope.
    """
    if not 0 <= bit < 64:
        raise ValueError("bit index must be in 0..63")
    (raw,) = struct.unpack("<Q", struct.pack("<d", value))
    raw ^= 1 << bit
    (flipped,) = struct.unpack("<d", struct.pack("<Q", raw))
    if not np.isfinite(flipped):
        return 0.0
    return flipped


class QTableFaultInjector:
    """Injects soft errors into an agent's state-action table."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.injected = 0

    def corrupt_random_entry(self, table: QTable, high_bits_only: bool = False) -> bool:
        """Flip one random bit in one random stored Q-value.

        Returns False when the table is empty (nothing to corrupt).
        *high_bits_only* restricts flips to exponent/sign bits — the
        worst-case upsets that change a value's magnitude drastically.
        """
        states = table.states()
        if not states:
            return False
        state = states[int(self._rng.integers(len(states)))]
        row = table.q_values(state)
        action = int(self._rng.integers(len(row)))
        bit = int(self._rng.integers(52, 64) if high_bits_only else self._rng.integers(64))
        row[action] = flip_float_bit(float(row[action]), bit)
        self.injected += 1
        return True


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
