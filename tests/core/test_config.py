"""Tests for Table 1 configurations and technique presets."""

import pytest

from repro.config import (
    CP,
    CPD,
    EB,
    ControlPolicy,
    EccScheme,
    FaultConfig,
    INTELLINOC,
    NocConfig,
    RlConfig,
    SECDED_BASELINE,
    SimulationConfig,
    all_techniques,
    technique,
)
from repro.noc.topology import build_topology


class TestTable1:
    """The simulation environment of Table 1."""

    def test_mesh_is_8x8_64_cores(self):
        noc = SECDED_BASELINE.noc
        assert (noc.width, noc.height, build_topology(noc).num_routers) == (8, 8, 64)

    def test_packets_are_4x128_bit_flits(self):
        noc = SECDED_BASELINE.noc
        assert noc.flits_per_packet == 4
        assert noc.flit_bits == 128

    def test_baseline_buffer_organization(self):
        """4RB-4VC-0CB (SECDED)."""
        noc = SECDED_BASELINE.noc
        assert noc.router_buffer_depth == 4
        assert noc.num_vcs == 4
        assert noc.channel_buffer_depth == 0
        assert noc.pipeline_stages == 4

    def test_channel_techniques_buffer_organization(self):
        """2RB-4VC-8CB (CP, CPD, IntelliNoC)."""
        for t in (CP, CPD, INTELLINOC):
            assert t.noc.router_buffer_depth == 2
            assert t.noc.num_vcs == 4
            assert t.noc.channel_buffer_depth == 8

    def test_eb_organization(self):
        """8CB x 2 sub-networks, VA eliminated."""
        assert EB.noc.channel_buffer_depth == 8
        assert EB.noc.subnetworks == 2
        assert EB.noc.pipeline_stages == 3

    def test_supply_and_clock(self):
        assert FaultConfig().supply_voltage == 1.0
        from repro.config import PowerConfig

        assert PowerConfig().clock_frequency_hz == 2.0e9


class TestRlDefaults:
    """Section 6.3's tuned hyperparameters."""

    def test_tuned_values(self):
        rl = RlConfig()
        assert rl.learning_rate == 0.1
        assert rl.discount == 0.9
        assert rl.epsilon == 0.05
        assert rl.time_step == 1000
        assert rl.num_bins == 5
        assert rl.initial_mode == 1
        assert rl.max_table_entries == 350
        assert rl.reward_weights == (1.0, 1.0, 1.0)

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            RlConfig(discount=1.5)
        with pytest.raises(ValueError):
            RlConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            RlConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            RlConfig(time_step=0)

    @pytest.mark.parametrize(
        "weights",
        [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
         (float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0), ("a", 1, 1), None],
    )
    def test_reward_weights_are_three_finite_non_negative_numbers(self, weights):
        with pytest.raises(ValueError):
            RlConfig(reward_weights=weights)

    def test_reward_weights_are_stored_as_a_tuple_of_floats(self):
        rl = RlConfig(reward_weights=[0, 1, 1])
        assert rl.reward_weights == (0.0, 1.0, 1.0)
        assert type(rl.reward_weights) is tuple and hash(rl) == hash(
            RlConfig(reward_weights=(0.0, 1.0, 1.0))
        )


class TestTechniques:
    def test_five_techniques_in_plot_order(self):
        names = [t.name for t in all_techniques()]
        assert names == ["SECDED", "EB", "CP", "CPD", "IntelliNoC"]

    def test_lookup_case_insensitive(self):
        assert technique("INTELLINOC") is INTELLINOC
        assert technique("cpd") is CPD

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="secded"):
            technique("bogus")

    def test_policies(self):
        assert SECDED_BASELINE.policy is ControlPolicy.STATIC
        assert EB.policy is ControlPolicy.STATIC
        assert CP.policy is ControlPolicy.STATIC
        assert CPD.policy is ControlPolicy.HEURISTIC
        assert INTELLINOC.policy is ControlPolicy.RL

    def test_only_intellinoc_has_mfac_and_bypass(self):
        for t in all_techniques():
            assert t.uses_mfac == (t.name == "IntelliNoC")
            assert t.uses_bypass == (t.name == "IntelliNoC")

    def test_with_rl_returns_modified_copy(self):
        variant = INTELLINOC.with_rl(discount=0.5)
        assert variant.rl.discount == 0.5
        assert INTELLINOC.rl.discount == 0.9
        assert variant.noc is INTELLINOC.noc


class TestEccScheme:
    def test_envelopes(self):
        assert EccScheme.SECDED.correct_bits == 1
        assert EccScheme.SECDED.detect_bits == 2
        assert EccScheme.DECTED.correct_bits == 2
        assert EccScheme.DECTED.detect_bits == 3
        assert EccScheme.CRC.correct_bits == 0

    def test_per_hop_classification(self):
        assert EccScheme.SECDED.per_hop and EccScheme.DECTED.per_hop
        assert not EccScheme.CRC.per_hop


class TestValidation:
    def test_noc_validation(self):
        with pytest.raises(ValueError):
            NocConfig(width=1)
        with pytest.raises(ValueError):
            NocConfig(num_vcs=0)
        with pytest.raises(ValueError):
            NocConfig(flits_per_packet=0)
        with pytest.raises(ValueError):
            NocConfig(pipeline_stages=7)

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(base_bit_error_rate=2.0)
        with pytest.raises(ValueError):
            FaultConfig(vth_failure_fraction=0.0)

    def test_simulation_config_exposes_noc(self):
        config = SimulationConfig(technique=EB)
        assert config.noc is EB.noc
