"""Eq. 1: the holistic log-space reward.

``r = -log(Latency) - log(Power) - log(Aging)``

All three quantities are kept > 1 (the paper constructs them that way:
latency is cycles >= 1, the Aging factor is 1 + dVth/Vth0, and power is
expressed in units where it exceeds 1), so each term is a penalty and the
reward is bounded above by ~0.  Working in log space makes constant scale
factors immaterial to the Q-learning update (Section 5).

Each term carries a weight (``RlConfig.reward_weights``).  The paper's
reward is (1, 1, 1), and computes bit for bit as the unweighted sum:
``1.0 * t`` is exact and ``a - b == a + (-b)``.  A weight of 0 drops its
term exactly, which is how the reward ablation runs.
"""

from __future__ import annotations

import math

# Power enters the log in milliwatts: a router's epoch power is O(1..100) mW,
# which keeps the term > 0 and comparable in magnitude to log(latency).
_POWER_UNIT_W = 1e-3
_FLOOR = 1.0 + 1e-9


def reward_components(
    latency_cycles: float,
    power_w: float,
    aging_factor: float,
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[float, float, float]:
    """The three weighted penalty terms of Eq. 1 (latency, power, aging)."""
    if latency_cycles < 0 or power_w < 0:
        raise ValueError("latency and power cannot be negative")
    if aging_factor < 1.0:
        raise ValueError("the Aging factor is constructed to be >= 1 (Eq. 7)")
    latency = max(latency_cycles, _FLOOR)
    power = max(power_w / _POWER_UNIT_W, _FLOOR)
    aging = max(aging_factor, _FLOOR)
    w_latency, w_power, w_aging = weights
    return (
        w_latency * -math.log(latency),
        w_power * -math.log(power),
        w_aging * -math.log(aging),
    )


def compute_reward(
    latency_cycles: float,
    power_w: float,
    aging_factor: float,
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> float:
    """Reward for one router over one control epoch (Eq. 1): the sum of
    :func:`reward_components`."""
    latency, power, aging = reward_components(
        latency_cycles, power_w, aging_factor, weights
    )
    return latency + power + aging
