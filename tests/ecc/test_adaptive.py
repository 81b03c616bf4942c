"""Tests for the adaptive ECC unit."""

import pytest

from repro.config import INTELLINOC, EccScheme, PowerConfig
from repro.ecc.adaptive import AdaptiveEccUnit
from repro.power.model import PowerModel


@pytest.fixture
def unit():
    return AdaptiveEccUnit(PowerConfig(), EccScheme.SECDED)


class TestConfiguration:
    def test_initial_scheme(self, unit):
        assert unit.scheme is EccScheme.SECDED

    def test_configure_switches_scheme(self, unit):
        unit.configure(EccScheme.DECTED)
        assert unit.scheme is EccScheme.DECTED

    def test_transition_counting(self, unit):
        unit.configure(EccScheme.DECTED)
        unit.configure(EccScheme.DECTED)  # no-op
        unit.configure(EccScheme.CRC)
        assert unit.transitions == 2

    def test_cannot_drop_below_crc(self, unit):
        with pytest.raises(ValueError):
            unit.configure(EccScheme.NONE)


class TestEnergyAndLeakage:
    def test_codec_energy_ordering(self, unit):
        unit.configure(EccScheme.CRC)
        crc = unit.codec_energy_pj()
        unit.configure(EccScheme.SECDED)
        secded = unit.codec_energy_pj()
        unit.configure(EccScheme.DECTED)
        dected = unit.codec_energy_pj()
        assert crc == 0.0  # no per-hop codec under CRC
        assert 0 < secded < dected

    def test_leakage_ordering(self, unit):
        leaks = {}
        for scheme in (EccScheme.CRC, EccScheme.SECDED, EccScheme.DECTED):
            unit.configure(scheme)
            leaks[scheme] = unit.leakage_mw()
        assert leaks[EccScheme.CRC] < leaks[EccScheme.SECDED] < leaks[EccScheme.DECTED]

    def test_crc_leakage_never_gated(self, unit):
        unit.configure(EccScheme.CRC)
        assert unit.leakage_mw() == pytest.approx(PowerConfig().crc_leak_mw)

    def test_end_to_end_check_energy(self):
        """The destination CRC check, charged once per ejected flit whatever
        the per-hop scheme, is the power model's one definition."""
        model = PowerModel(INTELLINOC, PowerConfig())
        assert model.ejection_check_energy_pj() == PowerConfig().crc_check_pj
