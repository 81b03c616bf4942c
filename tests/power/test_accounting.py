"""Tests for run-time energy accounting."""

import numpy as np
import pytest

from repro.config import PowerConfig
from repro.power.accounting import EnergyAccountant


@pytest.fixture
def acct():
    return EnergyAccountant(4, PowerConfig())


class TestDynamic:
    def test_accumulates_per_router(self, acct):
        acct.add_dynamic(0, 5.0)
        acct.add_dynamic(0, 2.5)
        acct.add_dynamic(3, 1.0)
        assert acct.dynamic_pj[0] == pytest.approx(7.5)
        assert acct.total_dynamic_pj() == pytest.approx(8.5)


    def test_float_accumulators_add_like_a_float64_array(self, acct):
        """The per-flit path accumulates in Python floats; the totals and
        the epoch snapshot must be bit-equal to float64 array arithmetic."""
        rng = np.random.default_rng(3)
        reference = np.zeros(4)
        for _ in range(2_000):
            router, energy = int(rng.integers(0, 4)), float(rng.random() * 7.3)
            acct.add_dynamic(router, energy)
            reference[router] += energy
        assert isinstance(acct.dynamic_pj, np.ndarray)
        assert np.array_equal(acct.dynamic_pj, reference)
        assert acct.total_dynamic_pj() == float(np.sum(reference))
        snapshot = acct.close_epoch(100)
        seconds = 100 / acct.power.clock_frequency_hz
        assert np.array_equal(snapshot.dynamic_w, reference * 1e-12 / seconds)
        assert np.array_equal(acct.dynamic_pj, reference)  # totals survive
        assert not acct.close_epoch(200).dynamic_w.any()  # epoch part reset


class TestStatic:
    def test_single_cycle_conversion(self, acct):
        # 2 mW over one 0.5 ns cycle = 1 pJ.
        acct.add_static_cycle(1, 2.0)
        assert acct.static_pj[1] == pytest.approx(1.0)

    def test_add_static_multi_cycle(self, acct):
        acct.add_static(2, 2.0, 10)
        assert acct.static_pj[2] == pytest.approx(10.0)

    def test_bulk_matches_scalar(self, acct):
        other = EnergyAccountant(4, PowerConfig())
        leak = np.array([1.0, 2.0, 3.0, 4.0])
        acct.add_static_cycles_bulk(leak, 7)
        for i in range(4):
            other.add_static(i, leak[i], 7)
        assert np.allclose(acct.static_pj, other.static_pj)

    def test_bulk_shape_checked(self, acct):
        with pytest.raises(ValueError):
            acct.add_static_cycles_bulk(np.zeros(3), 1)


class TestEpochs:
    def test_epoch_power_snapshot(self, acct):
        acct.add_dynamic(0, 100.0)
        acct.add_static(0, 2.0, 100)
        snap = acct.close_epoch(100)
        # 100 pJ over 50 ns = 2 mW dynamic.
        assert snap.dynamic_w[0] == pytest.approx(2e-3)
        assert snap.static_w[0] == pytest.approx(2e-3)
        assert snap.cycles == 100

    def test_epoch_resets(self, acct):
        acct.add_dynamic(0, 100.0)
        acct.close_epoch(100)
        snap = acct.close_epoch(200)
        assert snap.dynamic_w[0] == 0.0

    def test_totals_survive_epoch_close(self, acct):
        acct.add_dynamic(0, 100.0)
        acct.close_epoch(100)
        assert acct.total_dynamic_pj() == pytest.approx(100.0)

    def test_empty_epoch_rejected(self, acct):
        with pytest.raises(ValueError):
            acct.close_epoch(0)


class TestAverages:
    def test_average_power(self, acct):
        acct.add_dynamic(0, 200.0)
        acct.add_static(1, 4.0, 100)
        static_w, dynamic_w = acct.average_power_w(100)
        # 200 pJ / 50 ns = 4 mW dynamic; 4 mW static held 100 of 100 cycles.
        assert dynamic_w == pytest.approx(4e-3)
        assert static_w == pytest.approx(4e-3)

    def test_zero_cycles_rejected(self, acct):
        with pytest.raises(ValueError):
            acct.average_power_w(0)

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            EnergyAccountant(0, PowerConfig())
