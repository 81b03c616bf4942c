"""Tests for the runtime control policies."""

import numpy as np
import pytest

from repro.config import CP, CPD, EB, INTELLINOC, SECDED_BASELINE
from repro.control.policies import (
    HeuristicEccPolicy,
    RlPolicy,
    StaticPolicy,
    make_policy,
)
from repro.utils.rng import RngFactory
from tests.rl.test_state import make_obs


def obs_with_errors(clean=100, one=0, two=0, many=0):
    obs = make_obs()
    object.__setattr__(
        obs, "error_classes", np.array([clean, one, two, many], dtype=np.int64)
    )
    return obs


class TestMakePolicy:
    def test_static_for_baseline_and_eb_and_cp(self):
        for technique in (SECDED_BASELINE, EB, CP):
            policy = make_policy(technique, 64, RngFactory(1))
            assert isinstance(policy, StaticPolicy)
            assert not policy.adapts

    def test_heuristic_for_cpd(self):
        assert isinstance(make_policy(CPD, 64, RngFactory(1)), HeuristicEccPolicy)

    def test_rl_for_intellinoc(self):
        policy = make_policy(INTELLINOC, 64, RngFactory(1))
        assert isinstance(policy, RlPolicy)
        assert len(policy.agents) == 64


class TestStaticPolicy:
    def test_never_changes_modes(self):
        assert StaticPolicy().control_step([make_obs()], 1000) is None


class TestHeuristicPolicy:
    """Section 6.3: CPD picks ECC by the dominant error class."""

    def test_clean_epoch_selects_crc(self):
        policy = HeuristicEccPolicy()
        assert policy.control_step([obs_with_errors(clean=500)], 0) == [1]

    def test_single_bit_errors_select_secded(self):
        policy = HeuristicEccPolicy()
        assert policy.control_step([obs_with_errors(one=5)], 0) == [2]

    def test_double_bit_errors_select_dected(self):
        policy = HeuristicEccPolicy()
        assert policy.control_step([obs_with_errors(one=2, two=6)], 0) == [3]

    def test_multibit_errors_select_relaxed(self):
        policy = HeuristicEccPolicy()
        assert policy.control_step([obs_with_errors(many=9)], 0) == [4]

    def test_never_selects_bypass(self):
        policy = HeuristicEccPolicy()
        for obs in (obs_with_errors(), obs_with_errors(one=3, two=3, many=3)):
            assert policy.control_step([obs], 0) != [0]

    def test_per_router_independence(self):
        policy = HeuristicEccPolicy()
        modes = policy.control_step(
            [obs_with_errors(clean=10), obs_with_errors(two=4)], 0
        )
        assert modes == [1, 3]


class TestRlPolicy:
    def test_one_decision_per_agent(self):
        policy = make_policy(INTELLINOC, 4, RngFactory(1))
        modes = policy.control_step([make_obs() for _ in range(4)], 0)
        assert len(modes) == 4
        assert all(0 <= m <= 4 for m in modes)

    def test_observation_count_mismatch_rejected(self):
        policy = make_policy(INTELLINOC, 4, RngFactory(1))
        with pytest.raises(ValueError):
            policy.control_step([make_obs()], 0)

    def test_table_entry_reporting(self):
        policy = make_policy(INTELLINOC, 2, RngFactory(1))
        policy.control_step([make_obs(), make_obs(in_util=0.2)], 0)
        assert policy.max_table_entries() >= 1
        assert sum(len(a.qtable) for a in policy.agents) >= policy.max_table_entries()
