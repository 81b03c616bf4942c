"""Tests for the VARIUS-substitute transient fault model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import FaultConfig
from repro.ecc.outcomes import ErrorSampler
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
    """Eq. 3 over this model's rate, by the sampler the network uses."""

    def test_eq3_shape(self, model):
        re = model.bit_error_rate(345.0)
        p = ErrorSampler(128, np.random.default_rng(0)).flit_fault_probability(re)
        assert p == pytest.approx(1 - (1 - re) ** 128, rel=1e-9)

    @given(st.integers(min_value=1, max_value=512))
    def test_monotone_in_flit_width(self, bits):
        re = TransientFaultModel(FaultConfig()).bit_error_rate(345.0)
        rng = np.random.default_rng(0)
        p1 = ErrorSampler(bits, rng).flit_fault_probability(re)
        p2 = ErrorSampler(bits + 1, rng).flit_fault_probability(re)
        assert p2 >= p1

    def test_rejects_empty_flit(self):
        with pytest.raises(ValueError):
            ErrorSampler(0, np.random.default_rng(0))


def with_base_rate(model, rate):
    return TransientFaultModel(replace(model.config, base_bit_error_rate=rate))


class TestScaled:
    def test_scaled_changes_base_rate_only(self, model):
        scaled = with_base_rate(model, 1e-10)
        assert scaled.config.base_bit_error_rate == 1e-10
        assert scaled.config.reference_temperature == model.config.reference_temperature
        assert scaled.bit_error_rate(345.0) == pytest.approx(1e-10)

    def test_fig17b_sweep_range_ordering(self, model):
        rates = [
            with_base_rate(model, r).bit_error_rate(345.0)
            for r in (1e-10, 1e-9, 1e-8, 1e-7)
        ]
        assert rates == sorted(rates)
