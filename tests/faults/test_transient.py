"""Tests for the VARIUS-substitute transient fault model."""

import pytest
from hypothesis import given, strategies as st

from repro.config import FaultConfig
from repro.faults.transient import TransientFaultModel


@pytest.fixture
def model():
    return TransientFaultModel(FaultConfig())


class TestBitErrorRate:
    def test_reference_point(self, model):
        cfg = model.config
        rate = model.bit_error_rate(cfg.reference_temperature)
        assert rate == pytest.approx(cfg.base_bit_error_rate)

    def test_increases_with_temperature(self, model):
        cool = model.bit_error_rate(320.0)
        hot = model.bit_error_rate(360.0)
        assert hot > cool

    def test_decreases_with_voltage_margin(self, model):
        nominal = model.bit_error_rate(340.0, supply_voltage=1.0)
        overdriven = model.bit_error_rate(340.0, supply_voltage=1.1)
        droopy = model.bit_error_rate(340.0, supply_voltage=0.9)
        assert overdriven < nominal < droopy

    def test_relaxed_timing_slashes_rate(self, model):
        normal = model.bit_error_rate(350.0)
        relaxed = model.bit_error_rate(350.0, relaxed_timing=True)
        assert relaxed == pytest.approx(normal * model.config.relaxed_error_factor)

    def test_rate_capped_at_half(self, model):
        assert model.bit_error_rate(10_000.0) <= 0.5

    def test_invalid_inputs(self, model):
        with pytest.raises(ValueError):
            model.bit_error_rate(-1.0)
        with pytest.raises(ValueError):
            model.bit_error_rate(300.0, supply_voltage=0.0)


class TestFlitFaultProbability:
    def test_eq3_shape(self, model):
        re = model.bit_error_rate(345.0)
        p = model.flit_fault_probability(128, 345.0)
        assert p == pytest.approx(1 - (1 - re) ** 128, rel=1e-9)

    @given(st.integers(min_value=1, max_value=512))
    def test_monotone_in_flit_width(self, bits):
        model = TransientFaultModel(FaultConfig())
        p1 = model.flit_fault_probability(bits, 345.0)
        p2 = model.flit_fault_probability(bits + 1, 345.0)
        assert p2 >= p1

    def test_rejects_empty_flit(self, model):
        with pytest.raises(ValueError):
            model.flit_fault_probability(0, 345.0)


class TestScaled:
    def test_scaled_changes_base_rate_only(self, model):
        scaled = model.scaled(1e-10)
        assert scaled.config.base_bit_error_rate == 1e-10
        assert scaled.config.reference_temperature == model.config.reference_temperature
        assert scaled.bit_error_rate(345.0) == pytest.approx(1e-10)

    def test_fig17b_sweep_range_ordering(self, model):
        rates = [
            model.scaled(r).bit_error_rate(345.0)
            for r in (1e-10, 1e-9, 1e-8, 1e-7)
        ]
        assert rates == sorted(rates)
