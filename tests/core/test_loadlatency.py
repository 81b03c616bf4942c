"""Tests for the load-latency characterization harness."""

import pytest

from repro.config import FaultConfig, SECDED_BASELINE
from repro.core.loadlatency import LoadLatencySweep, LoadPoint
from repro.traffic.patterns import SyntheticPattern


#: The operating points every sweep here measures.  ``use_cache`` puts them
#: in the suite's `isolated_result_cache` directory, so a point one test
#: simulated is a cache hit for the next sweep that asks for it.
COMMON = dict(
    technique=SECDED_BASELINE,
    duration=1200,
    seed=6,
    faults=FaultConfig(base_bit_error_rate=0.0),
    drain_budget=6000,
    use_cache=True,
)


@pytest.fixture(scope="module")
def sweep():
    return LoadLatencySweep(pattern=SyntheticPattern.UNIFORM, **COMMON)


class TestMeasure:
    def test_light_load_not_saturated(self, sweep):
        point = sweep.measure(0.004)
        assert not point.saturated
        assert point.completed_fraction > 0.99
        assert point.avg_latency > 0

    def test_latency_monotone_under_load(self, sweep):
        points = sweep.sweep([0.004, 0.03, 0.08])
        latencies = [p.avg_latency for p in points]
        assert latencies[0] < latencies[-1]

    def test_throughput_tracks_offered_load_below_saturation(self, sweep):
        point = sweep.measure(0.01)
        # Accepted throughput within 30% of offered (drain cycles dilute it).
        assert point.throughput == pytest.approx(0.01, rel=0.35)

    def test_sweep_requires_rates(self, sweep):
        with pytest.raises(ValueError):
            sweep.sweep([])


class TestSaturation:
    def test_saturation_rate_found_between_anchors(self, sweep):
        rate = sweep.saturation_rate(low=0.004, high=0.3, iterations=3)
        assert 0.004 < rate <= 0.3

    def test_hotspot_saturates_earlier_than_uniform(self, sweep):
        hotspot = LoadLatencySweep(pattern=SyntheticPattern.HOTSPOT, **COMMON)
        u = sweep.saturation_rate(low=0.004, high=0.3, iterations=3)
        h = hotspot.saturation_rate(low=0.004, high=0.3, iterations=3)
        assert h < u
        # The bisection's documented cache reuse: a second sweep over the
        # same five uniform operating points simulates nothing.
        replay = LoadLatencySweep(pattern=SyntheticPattern.UNIFORM, **COMMON)
        assert replay.saturation_rate(low=0.004, high=0.3, iterations=3) == u
        assert replay.engine.total_executed == 0
        assert replay.engine.total_cache_hits >= 5


class TestLoadPoint:
    def test_saturated_classification(self):
        ok = LoadPoint(0.01, 25.0, 0.01, 1.0)
        bad = LoadPoint(0.2, 900.0, 0.05, 0.4)
        assert not ok.saturated
        assert bad.saturated
