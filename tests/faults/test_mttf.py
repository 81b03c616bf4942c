"""Tests for MTTF/FIT estimation."""

import math

import pytest

from repro.config import FaultConfig
from repro.faults.aging import AgingModel
from repro.faults.mttf import MttfEstimator


def stressed_model(temps, seconds=1.0, activity=0.5):
    model = AgingModel(FaultConfig(), num_routers=len(temps))
    for i, temp in enumerate(temps):
        model.accumulate(i, seconds, temp, activity, powered=True)
    return model


class TestRouterTtf:
    def test_unstressed_router_never_fails(self):
        model = AgingModel(FaultConfig(), num_routers=1)
        est = MttfEstimator(model)
        assert math.isinf(est.router_time_to_failure_seconds(0))

    def test_hotter_router_fails_sooner(self):
        model = stressed_model([330.0, 375.0])
        est = MttfEstimator(model)
        assert est.router_time_to_failure_seconds(1) < est.router_time_to_failure_seconds(0)

    def test_extrapolation_consistent_with_model(self):
        """At the extrapolated TTF, the model's dVth is near threshold."""
        model = stressed_model([360.0])
        est = MttfEstimator(model)
        ttf = est.router_time_to_failure_seconds(0)
        state = model.states[0]
        rate_n = state.nbti_stress / state.total_seconds
        rate_h = state.hci_stress / state.total_seconds
        shift = (
            model.NBTI_PREFACTOR * (rate_n * ttf) ** model.NBTI_EXPONENT
            + model.HCI_PREFACTOR * (rate_h * ttf) ** model.HCI_EXPONENT
        )
        threshold = model.config.vth_failure_fraction * model.config.nominal_vth
        assert shift == pytest.approx(threshold, rel=1e-6)

    def test_gated_time_extends_ttf(self):
        """A router powered half the time wears out more slowly."""
        always_on = AgingModel(FaultConfig(), num_routers=1)
        half_gated = AgingModel(FaultConfig(), num_routers=1)
        for _ in range(10):
            always_on.accumulate(0, 1.0, 355.0, 0.5, powered=True)
            half_gated.accumulate(0, 1.0, 355.0, 0.5, powered=True)
            always_on.accumulate(0, 1.0, 355.0, 0.5, powered=True)
            half_gated.accumulate(0, 1.0, 355.0, 0.5, powered=False)
        ttf_on = MttfEstimator(always_on).router_time_to_failure_seconds(0)
        ttf_gated = MttfEstimator(half_gated).router_time_to_failure_seconds(0)
        assert ttf_gated > ttf_on


class TestSystemMttf:
    def test_series_system_below_weakest_router(self):
        model = stressed_model([350.0, 350.0, 350.0, 350.0])
        est = MttfEstimator(model)
        weakest = min(
            est.router_time_to_failure_seconds(i) for i in range(4)
        )
        assert est.system_mttf_seconds() <= weakest

    def test_fit_rates_add(self):
        model = stressed_model([350.0, 350.0])
        est = MttfEstimator(model)
        total = 1.0 / est.system_mttf_seconds()
        parts = sum(1.0 / est.router_time_to_failure_seconds(i) for i in range(2))
        assert total == pytest.approx(parts, rel=1e-6)

    def test_unstressed_system_has_zero_fit(self):
        model = AgingModel(FaultConfig(), num_routers=3)
        est = MttfEstimator(model)
        assert math.isinf(est.system_mttf_seconds())
