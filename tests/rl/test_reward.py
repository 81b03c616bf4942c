"""Tests for the Eq. 1 reward."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import RlConfig
from repro.rl.agent import RouterAgent
from repro.rl.reward import compute_reward, reward_components
from repro.utils.rng import make_rng
from tests.rl.test_state import make_obs


class TestComputeReward:
    def test_log_space_sum(self):
        # latency 20 cycles, power 5 mW, aging 1.05.
        r = compute_reward(20.0, 5e-3, 1.05)
        assert r == pytest.approx(-(math.log(20) + math.log(5) + math.log(1.05)))

    def test_lower_latency_is_better(self):
        assert compute_reward(10.0, 5e-3, 1.0) > compute_reward(40.0, 5e-3, 1.0)

    def test_lower_power_is_better(self):
        assert compute_reward(20.0, 2e-3, 1.0) > compute_reward(20.0, 8e-3, 1.0)

    def test_less_aging_is_better(self):
        assert compute_reward(20.0, 5e-3, 1.0) > compute_reward(20.0, 5e-3, 1.2)

    def test_reward_is_bounded_above(self):
        """Quantities are kept > 1 (Section 5), so each term is a penalty."""
        assert compute_reward(0.0, 0.0, 1.0) <= 0.0

    def test_scale_invariance_of_differences(self):
        """Log space: a constant power scale shifts rewards by a constant
        (Section 5's argument for why units don't matter)."""
        d1 = compute_reward(20.0, 4e-3, 1.0) - compute_reward(20.0, 8e-3, 1.0)
        d2 = compute_reward(20.0, 40e-3, 1.0) - compute_reward(20.0, 80e-3, 1.0)
        assert d1 == pytest.approx(d2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compute_reward(-1.0, 5e-3, 1.0)
        with pytest.raises(ValueError):
            compute_reward(20.0, -5e-3, 1.0)
        with pytest.raises(ValueError):
            compute_reward(20.0, 5e-3, 0.9)

    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=1e-6, max_value=10.0),
        st.floats(min_value=1.0, max_value=2.0),
    )
    def test_always_finite(self, lat, power, aging):
        assert math.isfinite(compute_reward(lat, power, aging))


class TestComponents:
    def test_components_sum_to_reward(self):
        parts = reward_components(20.0, 5e-3, 1.05)
        assert sum(parts) == pytest.approx(compute_reward(20.0, 5e-3, 1.05))

    def test_each_component_nonpositive(self):
        parts = reward_components(20.0, 5e-3, 1.05)
        assert all(p <= 0 for p in parts)


def paper_reward(latency_cycles, power_w, aging_factor):
    """Eq. 1 exactly as written before it had weights: the reference."""
    latency = max(latency_cycles, 1.0 + 1e-9)
    power = max(power_w / 1e-3, 1.0 + 1e-9)
    aging = max(aging_factor, 1.0 + 1e-9)
    return -math.log(latency) - math.log(power) - math.log(aging)


LATENCY = st.floats(min_value=0.0, max_value=1e6)
POWER = st.floats(min_value=0.0, max_value=100.0)
AGING = st.floats(min_value=1.0, max_value=3.0)
WEIGHT = st.floats(min_value=0.0, max_value=10.0)


class TestWeights:
    """Eq. 1's terms carry ``RlConfig.reward_weights``."""

    @given(LATENCY, POWER, AGING)
    def test_unit_weights_are_the_papers_reward_bit_for_bit(self, lat, power, aging):
        assert compute_reward(lat, power, aging) == paper_reward(lat, power, aging)
        assert compute_reward(lat, power, aging, (1.0, 1.0, 1.0)) == paper_reward(
            lat, power, aging
        )

    @given(LATENCY, POWER, AGING, st.sampled_from(range(3)), WEIGHT, WEIGHT)
    def test_a_zero_weight_contributes_exactly_zero(self, lat, power, aging, dropped, w1, w2):
        weights = [w1, w2]
        weights.insert(dropped, 0.0)
        terms = reward_components(lat, power, aging, tuple(weights))
        assert terms[dropped] == 0.0
        kept = [t for i, t in enumerate(terms) if i != dropped]
        assert compute_reward(lat, power, aging, tuple(weights)) == kept[0] + kept[1]

    @given(LATENCY, POWER, AGING, st.tuples(WEIGHT, WEIGHT, WEIGHT))
    def test_the_agents_telemetry_terms_sum_to_its_reward(self, lat, power, aging, weights):
        rl = RlConfig(reward_weights=weights)
        agent = RouterAgent(0, rl, make_rng(1, "agent/0"))
        agent.decide(make_obs(epoch_latency=lat, epoch_power_w=power, aging_factor=aging))
        latency_term, power_term, aging_term = agent.last_reward_terms
        assert latency_term + power_term + aging_term == agent.last_reward
        assert agent.last_reward == compute_reward(lat, power, aging, rl.reward_weights)
