"""Control-plane fault injection (the paper's stated future work).

Section 6 notes: "In future work, we will consider faults in the control
circuit, routing table, state-action table, and other sources."  This
module provides that capability for the state-action table: soft errors
flip bits in stored Q-values (the ``QTableCorruption`` scenario event), and
the experimenter can measure how quickly online temporal-difference
learning repairs the damage.
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


def corrupt_random_entry(
    table: QTable, rng: np.random.Generator, high_bits_only: bool = False
) -> bool:
    """Flip one random bit in one random stored Q-value, drawing from *rng*.

    Returns False when the table is empty (nothing to corrupt).
    *high_bits_only* restricts flips to exponent/sign bits — the
    worst-case upsets that change a value's magnitude drastically.
    """
    states = table.states()
    if not states:
        return False
    state = states[int(rng.integers(len(states)))]
    row = table.q_values(state)
    action = int(rng.integers(len(row)))
    bit = int(rng.integers(52, 64) if high_bits_only else rng.integers(64))
    row[action] = flip_float_bit(float(row[action]), bit)
    return True
