"""Tests for the adaptive ECC hardware: its activation levels are the
operation modes' schemes (`repro.config.OPERATION_MODES`), and what each
level costs is the power model's."""

import pytest

from repro.config import INTELLINOC, OPERATION_MODES, EccScheme, PowerConfig
from repro.power.model import PowerModel
from tests.noc.test_router_unit import bare_router

LEVELS = (EccScheme.CRC, EccScheme.SECDED, EccScheme.DECTED)


@pytest.fixture
def model():
    return PowerModel(INTELLINOC, PowerConfig())


class TestConfiguration:
    def test_initial_scheme(self):
        """A router's hardware starts at its start mode's level."""
        start = OPERATION_MODES[INTELLINOC.rl.initial_mode]
        assert bare_router(INTELLINOC).scheme is start.scheme

    def test_configure_switches_scheme(self):
        """A mode switch configures the hardware to the record's level."""
        r = bare_router(INTELLINOC)
        for mode in (3, 1, 4):
            r.apply_mode(mode, 0)
            assert r.scheme is OPERATION_MODES[mode].scheme

    def test_cannot_drop_below_crc(self):
        """The hardware always retains at least the CRC: every level it can
        realize detects errors, and the mode table uses exactly those."""
        assert set(EccScheme) == set(LEVELS)
        assert all(scheme.detect_bits > 0 for scheme in EccScheme)
        assert {record.scheme for record in OPERATION_MODES} == set(LEVELS)


class TestEnergyAndLeakage:
    def test_codec_energy_ordering(self, model):
        """A hop, through the crossbar or the bypass, pays the codec only
        under per-hop ECC: nothing extra under CRC, more under DECTED than
        SECDED."""
        power = PowerConfig()
        assert 0 < power.secded_codec_pj < power.dected_codec_pj
        for via_bypass in (False, True):
            crc, secded, dected = (
                model.hop_energy_pj(scheme, via_bypass) for scheme in LEVELS
            )
            assert secded == crc + power.secded_codec_pj
            assert dected == crc + power.dected_codec_pj

    def test_leakage_ordering(self, model):
        """The leakage the power model charges for a scheme grows from CRC
        to SECDED to DECTED."""
        crc, secded, dected = (model.ecc_leakage_mw(scheme) for scheme in LEVELS)
        assert crc < secded < dected

    def test_crc_leakage_never_gated(self, model):
        """Under CRC only the always-on CRC circuitry leaks."""
        assert model.ecc_leakage_mw(EccScheme.CRC) == pytest.approx(
            PowerConfig().crc_leak_mw
        )

    def test_end_to_end_check_energy(self, model):
        """The destination CRC check, charged once per ejected flit whatever
        the per-hop scheme, is the power model's one definition."""
        assert model.ejection_check_energy_pj() == PowerConfig().crc_check_pj
