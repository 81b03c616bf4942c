"""Tests for metric summaries."""

import pytest

from repro.config import FaultConfig
from repro.metrics.energy import energy_delay_product, energy_efficiency
from repro.metrics.latency import LatencySummary
from repro.metrics.reliability import ReliabilitySummary
from repro.metrics.summary import RunMetrics
from repro.noc.statistics import ReservoirSample
from repro.traffic.trace import TraceEvent
from tests.conftest import make_network


class TestEnergyEfficiency:
    def test_eq8_reciprocal_of_energy(self):
        # 2 W total power over 0.5 s = 1 J -> efficiency 1.
        assert energy_efficiency(1.5, 0.5, 0.5) == pytest.approx(1.0)

    def test_less_power_is_more_efficient(self):
        assert energy_efficiency(0.5, 0.5, 1.0) > energy_efficiency(1.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            energy_efficiency(0.0, 0.0, 1.0)

    def test_edp(self):
        assert energy_delay_product(2.0, 3.0) == 6.0
        with pytest.raises(ValueError):
            energy_delay_product(-1.0, 1.0)


class TestLatencySummary:
    def test_from_samples(self):
        s = LatencySummary.from_samples(list(range(1, 101)))
        assert s.mean == pytest.approx(50.5)
        assert s.median == pytest.approx(50.5)
        assert s.p95 == pytest.approx(95.05)
        assert s.maximum == 100
        assert s.count == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.from_samples([])

    def test_str_mentions_percentiles(self):
        assert "p99" in str(LatencySummary.from_samples([1, 2, 3]))


class TestReliabilitySummary:
    def make(self, **kwargs):
        defaults = dict(
            hop_retransmissions=10,
            e2e_retransmission_flits=8,
            corrected_flits=5,
            silent_corruptions=1,
            corrupted_packets_delivered=0,
            flits_delivered=1000,
            mttf_seconds=100.0,
            mean_aging_factor=1.01,
            max_aging_factor=1.05,
        )
        defaults.update(kwargs)
        return ReliabilitySummary(**defaults)

    def test_total_retransmissions_is_fig15_metric(self):
        assert self.make().total_retransmitted_flits == 18

    def test_rates(self):
        s = self.make()
        assert s.retransmission_rate == pytest.approx(0.018)

    def test_zero_delivery_rates(self):
        s = self.make(flits_delivered=0)
        assert s.retransmission_rate == 0.0


class TestRunMetricsFromNetwork:
    def test_summary_of_small_run(self):
        events = [TraceEvent(i * 5, i % 64, (i + 9) % 64, 4) for i in range(1, 50)]
        net = make_network(events=events, faults=FaultConfig(base_bit_error_rate=0.0))
        net.run_to_completion(5000)
        metrics = RunMetrics.from_network(net, workload_name="unit")
        assert metrics.technique == "SECDED"
        assert metrics.workload == "unit"
        assert metrics.packets_completed == 49
        assert metrics.execution_cycles == net.cycle
        assert metrics.static_power_w > 0
        assert metrics.dynamic_power_w > 0
        assert metrics.total_energy_j > 0
        assert metrics.energy_efficiency == pytest.approx(
            1.0 / (metrics.total_power_w * metrics.execution_seconds)
        )
        assert sum(metrics.mode_breakdown.values()) == pytest.approx(1.0)

    def test_mean_and_count_are_exact_past_the_reservoir(self):
        """Only the percentiles and the maximum are sampled once a run
        outgrows the latency reservoir; the mean and the count are the
        run's totals."""
        events = [TraceEvent(i * 5, i % 64, (i + 9) % 64, 4) for i in range(1, 50)]
        net = make_network(events=events, faults=FaultConfig(base_bit_error_rate=0.0))
        net.stats._latency_reservoir = ReservoirSample(capacity=8, seed=7)
        net.run_to_completion(5000)
        stats = net.stats
        latency = RunMetrics.from_network(net).latency
        assert len(stats.latencies) == 8
        assert latency.count == stats.latency_count == 49
        assert latency.mean == stats.latency_sum / 49
        sampled = LatencySummary.from_samples(stats.latencies)
        assert (latency.median, latency.p95, latency.p99, latency.maximum) == (
            sampled.median, sampled.p95, sampled.p99, sampled.maximum
        )

    def test_energy_consistency(self):
        """Average power times time equals accumulated energy."""
        events = [TraceEvent(i * 7, i % 64, (i + 5) % 64, 4) for i in range(1, 30)]
        net = make_network(events=events)
        net.run_to_completion(5000)
        m = RunMetrics.from_network(net)
        assert m.total_power_w * m.execution_seconds == pytest.approx(
            m.total_energy_j, rel=1e-9
        )
