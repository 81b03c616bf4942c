"""Tests for RL state extraction and discretization."""

import numpy as np
import pytest

from repro.noc.statistics import RouterEpochCounters
from repro.rl.state import RouterObservation, StateExtractor


def make_obs(in_util=0.0, buf=0.0, out_util=0.0, temp=320.0, **kwargs):
    defaults = dict(
        router=0,
        in_link_utilization=np.full(5, in_util),
        buffer_utilization=np.full(5, buf),
        out_link_utilization=np.full(5, out_util),
        temperature=temp,
        epoch_power_w=0.005,
        epoch_latency=20.0,
        aging_factor=1.0,
        error_classes=np.zeros(4, dtype=np.int64),
    )
    defaults.update(kwargs)
    return RouterObservation(**defaults)


class TestDiscretization:
    def test_sixteen_features(self):
        state = StateExtractor(5).extract(make_obs())
        assert len(state) == 16

    def test_all_bins_in_range(self):
        ex = StateExtractor(5)
        state = ex.extract(make_obs(in_util=10.0, buf=2.0, temp=1000.0))
        assert all(0 <= b <= 4 for b in state)

    def test_clamping_at_edges(self):
        ex = StateExtractor(5)
        low = ex.extract(make_obs(in_util=0.0, temp=0.0))
        high = ex.extract(make_obs(in_util=99.0, temp=999.0))
        assert low[0] == 0 and low[15] == 0
        assert high[0] == 4 and high[15] == 4

    def test_monotone_in_utilization(self):
        ex = StateExtractor(5)
        states = [ex.extract(make_obs(in_util=u))[0] for u in (0.0, 0.1, 0.2, 0.4)]
        assert states == sorted(states)

    def test_port_permutation_invariance(self):
        """Sorting collapses port relabelings into one state."""
        ex = StateExtractor(5)
        a = make_obs()
        b = make_obs()
        util = np.array([0.3, 0.0, 0.1, 0.0, 0.0])
        a = make_obs(in_util=0.0)
        object.__setattr__(a, "in_link_utilization", util)
        object.__setattr__(b, "in_link_utilization", util[::-1].copy())
        assert ex.extract(a) == ex.extract(b)

    def test_rejects_single_bin(self):
        with pytest.raises(ValueError):
            StateExtractor(1)

    def test_discretize_rejects_empty_range(self):
        ex = StateExtractor(5)
        with pytest.raises(ValueError):
            ex._discretize(1.0, 5.0, 5.0)


class TestRouterObservation:
    def test_from_counters_normalizes_rates(self):
        counters = RouterEpochCounters()
        counters.in_flits[:] = [50] * counters.num_ports
        counters.out_flits[:] = [100] * counters.num_ports
        obs = RouterObservation.from_counters(
            router=3,
            counters=counters,
            epoch_cycles=1000,
            temperature=330.0,
            epoch_power_w=0.004,
            fallback_latency=25.0,
            aging_factor=1.01,
        )
        assert np.allclose(obs.in_link_utilization, 0.05)
        assert np.allclose(obs.out_link_utilization, 0.1)
        assert obs.epoch_latency == 25.0  # fallback: no packets completed

    def test_counter_lists_become_arrays_that_do_not_alias_them(self):
        """The counters are int lists (bumped per flit hop); an observation
        hands policies float64 rates and its own int64 error histogram."""
        counters = RouterEpochCounters()
        counters.in_flits[2] = 7
        counters.out_flits[4] = 9
        counters.record_error_class(2)
        obs = RouterObservation.from_counters(
            0, counters, 100, 320.0, 0.004, 20.0, 1.0
        )
        for rates in (obs.in_link_utilization, obs.out_link_utilization):
            assert rates.dtype == np.float64 and rates.shape == (counters.num_ports,)
        assert obs.in_link_utilization[2] == pytest.approx(0.07)
        assert obs.out_link_utilization[4] == pytest.approx(0.09)
        assert obs.error_classes.dtype == np.int64
        assert obs.error_classes.tolist() == [0, 0, 1, 0]
        counters.record_error_class(2)
        counters.reset()
        assert obs.error_classes.tolist() == [0, 0, 1, 0]  # a copy, not a view

    def test_latency_from_counters_when_available(self):
        counters = RouterEpochCounters()
        counters.latency_sum = 300
        counters.latency_count = 10
        obs = RouterObservation.from_counters(
            0, counters, 1000, 320.0, 0.004, 99.0, 1.0
        )
        assert obs.epoch_latency == 30.0

    def test_zero_epoch_rejected(self):
        with pytest.raises(ValueError):
            RouterObservation.from_counters(
                0, RouterEpochCounters(), 0, 320.0, 0.004, 20.0, 1.0
            )
