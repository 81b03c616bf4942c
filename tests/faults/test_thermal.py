"""Tests for the lumped-RC thermal model."""

import numpy as np
import pytest

from repro.config import FaultConfig, NocConfig
from repro.faults.thermal import ThermalModel


@pytest.fixture
def model():
    return ThermalModel(NocConfig(width=4, height=4), FaultConfig())


def step_many(model, power, dt, n):
    for _ in range(n):
        model.step(power, dt)


class TestDynamics:
    def test_starts_at_ambient(self, model):
        assert np.allclose(model.temperatures, model.config.ambient_temperature)

    def test_rises_toward_rc_target(self, model):
        power = np.full(16, 0.01)  # 10 mW each
        step_many(model, power, 1e-6, 200)
        target = (
            model.config.ambient_temperature
            + model.config.thermal_resistance * 0.01
        )
        assert np.allclose(model.temperatures, target, atol=0.5)

    def test_cools_back_when_power_removed(self, model):
        power = np.full(16, 0.02)
        step_many(model, power, 1e-6, 100)
        hot = model.mean_temperature()
        step_many(model, np.zeros(16), 1e-6, 300)
        assert model.mean_temperature() < hot
        assert model.mean_temperature() == pytest.approx(
            model.config.ambient_temperature, abs=1.0
        )

    def test_single_hot_node_heats_neighbors(self, model):
        power = np.zeros(16)
        power[5] = 0.05
        step_many(model, power, 1e-6, 100)
        ambient = model.config.ambient_temperature
        assert model.temperature(5) > model.temperature(6) > ambient
        # Distance-2 node is cooler than distance-1 neighbor.
        assert model.temperature(6) > model.temperature(7)

    def test_hottest_identifies_peak(self, model):
        power = np.zeros(16)
        power[10] = 0.04
        step_many(model, power, 1e-6, 50)
        idx, temp = model.hottest()
        assert idx == 10
        assert temp == max(model.temperatures)


class TestValidation:
    def test_wrong_power_shape_rejected(self, model):
        with pytest.raises(ValueError):
            model.step(np.zeros(7), 1e-6)

    def test_nonpositive_dt_rejected(self, model):
        with pytest.raises(ValueError):
            model.step(np.zeros(16), 0.0)

    def test_mesh_neighbor_structure(self, model):
        # Corner node 0 has exactly 2 neighbors in a 4x4 mesh.
        assert model._neighbors[0] == [1, 4]
        # Center node 5 has 4, summed west, east, south, north (the order
        # of that float sum is part of every digest).
        assert model._neighbors[5] == [4, 6, 1, 9]
