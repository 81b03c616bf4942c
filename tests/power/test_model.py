"""Tests for the power model."""

import pytest

from repro.config import (
    CP,
    EB,
    EccScheme,
    INTELLINOC,
    PowerConfig,
    SECDED_BASELINE,
)
from repro.power.model import PowerModel


def model_for(technique):
    return PowerModel(technique, PowerConfig())


class TestLeakage:
    def test_baseline_buffers_dominate(self):
        m = model_for(SECDED_BASELINE)
        p = PowerConfig()
        expected_buffers = 16 * 5 * p.router_buffer_leak_mw
        assert m.router_core_leakage_mw() >= expected_buffers

    def test_fewer_buffers_less_leakage(self):
        assert (
            model_for(CP).router_core_leakage_mw()
            < model_for(SECDED_BASELINE).router_core_leakage_mw()
        )

    def test_gated_router_leaks_less_than_powered(self):
        m = model_for(INTELLINOC)
        on = m.router_leakage_mw(True, EccScheme.SECDED)
        off = m.router_leakage_mw(False, EccScheme.SECDED)
        assert off < on
        # The always-on BST and channel buffers still leak.
        assert off >= m.bst_leakage_mw() + m.channel_leakage_mw()

    def test_gating_overhead_only_for_gating_techniques(self):
        baseline = model_for(SECDED_BASELINE)
        gating = model_for(CP)
        assert baseline.router_leakage_mw(False, EccScheme.SECDED) < gating.router_leakage_mw(
            False, EccScheme.SECDED
        ) + gating.router_core_leakage_mw()

    def test_ecc_leakage_ordering(self):
        m = model_for(INTELLINOC)
        assert (
            m.ecc_leakage_mw(EccScheme.CRC)
            < m.ecc_leakage_mw(EccScheme.SECDED)
            < m.ecc_leakage_mw(EccScheme.DECTED)
        )

    def test_channel_leakage_scales_with_stages(self):
        assert model_for(CP).channel_leakage_mw() > model_for(SECDED_BASELINE).channel_leakage_mw()


class TestDynamicEvents:
    def test_bypass_hop_cheaper_than_full_hop(self):
        m = model_for(INTELLINOC)
        assert m.hop_energy_pj(EccScheme.CRC, via_bypass=True) < m.hop_energy_pj(
            EccScheme.CRC, via_bypass=False
        )

    def test_per_hop_ecc_adds_codec_energy(self):
        m = model_for(SECDED_BASELINE)
        crc = m.hop_energy_pj(EccScheme.CRC, via_bypass=False)
        secded = m.hop_energy_pj(EccScheme.SECDED, via_bypass=False)
        dected = m.hop_energy_pj(EccScheme.DECTED, via_bypass=False)
        assert crc < secded < dected

    def test_buffer_energy_scales_with_depth(self):
        assert model_for(EB).buffer_energy_scale() < model_for(
            SECDED_BASELINE
        ).buffer_energy_scale()

    def test_link_energy_linear_in_stages(self):
        m = model_for(SECDED_BASELINE)
        assert m.link_energy_pj(2) == pytest.approx(2 * m.link_energy_pj(1))

    def test_hold_energy_added(self):
        m = model_for(CP)
        assert m.link_energy_pj(1, held_cycles=4) > m.link_energy_pj(1)
