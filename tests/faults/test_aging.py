"""Tests for the NBTI + HCI aging model."""

import math

import pytest

from repro.config import FaultConfig
from repro.faults.aging import AgingModel


@pytest.fixture
def model():
    return AgingModel(FaultConfig(), num_routers=4)


class TestAccumulation:
    def test_fresh_device_has_unit_aging(self, model):
        assert model.aging_factor(0) == 1.0
        assert model.delta_vth(0) == 0.0

    def test_stress_raises_vth(self, model):
        model.accumulate(0, 1.0, 350.0, 0.5, powered=True)
        assert model.delta_vth(0) > 0
        assert model.aging_factor(0) > 1.0

    def test_gated_epochs_accrue_only_calendar_wear(self, model):
        model.accumulate(0, 1.0, 350.0, 0.5, powered=False)
        model.accumulate(1, 1.0, 350.0, 0.5, powered=True)
        # Gated: no HCI at all, NBTI at the residual calendar fraction.
        assert model.delta_vth_hci(0) == 0.0
        assert model.states[0].nbti_stress == pytest.approx(
            model.GATED_NBTI_FRACTION * model.states[1].nbti_stress
        )
        assert model.states[0].total_seconds == 1.0
        assert model.states[0].powered_seconds == 0.0

    def test_hotter_ages_faster(self, model):
        model.accumulate(0, 1.0, 330.0, 0.5, powered=True)
        model.accumulate(1, 1.0, 370.0, 0.5, powered=True)
        assert model.delta_vth_nbti(1) > model.delta_vth_nbti(0)

    def test_higher_activity_more_hci(self, model):
        model.accumulate(0, 1.0, 340.0, 0.1, powered=True)
        model.accumulate(1, 1.0, 340.0, 0.9, powered=True)
        assert model.delta_vth_hci(1) > model.delta_vth_hci(0)
        # NBTI is activity-independent (PMOS bias stress).
        assert model.delta_vth_nbti(1) == pytest.approx(model.delta_vth_nbti(0))

    def test_sublinear_time_growth(self, model):
        """Eq. 5/6: dVth grows sublinearly -> doubling time < doubling shift."""
        model.accumulate(0, 1.0, 345.0, 0.5, powered=True)
        one = model.delta_vth(0)
        model.accumulate(0, 1.0, 345.0, 0.5, powered=True)
        two = model.delta_vth(0)
        assert one < two < 2 * one

    def test_nbti_and_hci_add_independently(self, model):
        model.accumulate(0, 2.0, 350.0, 0.7, powered=True)
        assert model.delta_vth(0) == pytest.approx(
            model.delta_vth_nbti(0) + model.delta_vth_hci(0)
        )

    def test_invalid_inputs(self, model):
        with pytest.raises(ValueError):
            model.accumulate(0, -1.0, 350.0, 0.5, powered=True)
        with pytest.raises(ValueError):
            model.accumulate(0, 1.0, 350.0, 1.5, powered=True)


class TestFailure:
    def test_permanent_fault_at_ten_percent_shift(self):
        model = AgingModel(FaultConfig(), num_routers=1)
        # Hammer with extreme stress until the threshold crossing.
        for _ in range(10_000):
            if model.has_failed(0):
                break
            model.accumulate(0, 1e4, 420.0, 1.0, powered=True)
        assert model.has_failed(0)
        threshold = 0.10 * model.config.nominal_vth
        assert model.delta_vth(0) > threshold


class TestAlphaPowerLaw:
    def test_fresh_device_delay_factor_is_one(self, model):
        assert model.gate_delay_factor(0) == pytest.approx(1.0)

    def test_aged_device_is_slower(self, model):
        model.accumulate(0, 100.0, 370.0, 1.0, powered=True)
        assert model.gate_delay_factor(0) > 1.0

    def test_infinite_delay_past_supply(self):
        cfg = FaultConfig(nominal_vth=0.95)
        model = AgingModel(cfg, num_routers=1)
        model.accumulate(0, 1e6, 400.0, 1.0, powered=True)
        assert math.isinf(model.gate_delay_factor(0)) or model.gate_delay_factor(0) > 1


class TestAggregates:
    def test_mean_and_max(self, model):
        model.accumulate(0, 10.0, 370.0, 1.0, powered=True)
        assert model.max_aging() >= model.mean_aging() >= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AgingModel(FaultConfig(), num_routers=0)
