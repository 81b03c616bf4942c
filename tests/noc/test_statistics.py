"""Tests for statistics collection."""

import pytest

from repro.noc.statistics import NetworkStatistics, RouterEpochCounters


class TestRouterEpochCounters:
    def test_error_class_binning(self):
        c = RouterEpochCounters()
        for errors in (0, 0, 1, 2, 3, 7):
            c.record_error_class(errors)
        assert list(c.error_classes) == [2, 1, 1, 2]  # >=3 bucket absorbs 7

    def test_reset_clears_everything(self):
        c = RouterEpochCounters()
        c.in_flits[1] = 5
        c.latency_sum, c.latency_count = 100, 2
        c.record_error_class(1)
        c.occupancy_samples[0] = 0.5
        c.num_occupancy_samples = 1
        in_flits, error_classes = c.in_flits, c.error_classes
        c.reset()
        assert c.in_flits == [0] * c.num_ports
        assert c.latency_count == 0
        assert c.error_classes == [0, 0, 0, 0]
        # Zeroed in place: whoever holds the lists keeps seeing the counters.
        assert c.in_flits is in_flits and c.error_classes is error_classes
        assert c.num_occupancy_samples == 0

    def test_mean_buffer_utilization(self):
        c = RouterEpochCounters()
        c.occupancy_samples[:] = 2.0
        c.num_occupancy_samples = 4
        assert c.mean_buffer_utilization()[0] == pytest.approx(0.5)
        c.reset()
        assert c.mean_buffer_utilization().sum() == 0.0


class TestNetworkStatistics:
    def test_completion_aggregates(self):
        stats = NetworkStatistics(4)
        stats.record_completion(10, 0, cycle=100, path=[0, 1, 2])
        stats.record_completion(30, 1, cycle=120, path=[1])
        assert stats.average_latency == 20
        assert stats.last_completion_cycle == 120

    def test_path_attribution(self):
        stats = NetworkStatistics(4)
        stats.record_completion(12, 0, cycle=0, path=[0, 2, 3])
        assert stats.routers[0].latency_count == 1
        assert stats.routers[2].latency_sum == 12
        assert stats.routers[1].latency_count == 0

    def test_fallback_to_source_without_path(self):
        stats = NetworkStatistics(4)
        stats.record_completion(12, 3, cycle=0, path=None)
        assert stats.routers[3].latency_count == 1

    def test_no_packets_raises(self):
        stats = NetworkStatistics(4)
        with pytest.raises(ValueError):
            _ = stats.average_latency

    def test_retransmission_total(self):
        stats = NetworkStatistics(4)
        stats.hop_retransmissions = 7
        stats.e2e_retransmission_flits = 8
        assert stats.total_retransmitted_flits == 15

    def test_mode_breakdown_normalizes(self):
        stats = NetworkStatistics(4)
        stats.record_mode_cycles(0, 100)
        stats.record_mode_cycles(1, 300)
        breakdown = stats.mode_breakdown()
        assert breakdown[0] == pytest.approx(0.25)
        assert breakdown[1] == pytest.approx(0.75)

    def test_empty_mode_breakdown(self):
        assert sum(NetworkStatistics(4).mode_breakdown().values()) == 0.0


class TestReservoirSample:
    def test_exact_below_capacity(self):
        from repro.noc.statistics import ReservoirSample

        r = ReservoirSample(capacity=100)
        for v in range(50):
            r.add(v)
        assert r.samples == list(range(50))
        assert r.seen == 50

    def test_bounded_above_capacity(self):
        from repro.noc.statistics import ReservoirSample

        r = ReservoirSample(capacity=64)
        for v in range(10_000):
            r.add(v)
        assert len(r.samples) == 64
        assert r.seen == 10_000
        assert all(0 <= v < 10_000 for v in r.samples)

    def test_deterministic_across_instances(self):
        from repro.noc.statistics import ReservoirSample

        a, b = ReservoirSample(capacity=32), ReservoirSample(capacity=32)
        for v in range(1_000):
            a.add(v)
            b.add(v)
        assert a.samples == b.samples

    def test_rejects_zero_capacity(self):
        from repro.noc.statistics import ReservoirSample

        with pytest.raises(ValueError):
            ReservoirSample(capacity=0)

    def test_network_statistics_latencies_are_bounded(self):
        from repro.noc.statistics import LATENCY_RESERVOIR_SIZE

        stats = NetworkStatistics(4)
        stats._latency_reservoir.capacity = 16  # shrink for the test
        for i in range(100):
            stats.record_completion(10 + i, 0, cycle=i)
        assert len(stats.latencies) == 16
        assert stats.latency_count == 100
        assert stats.average_latency == pytest.approx(10 + 99 / 2)
        assert LATENCY_RESERVOIR_SIZE >= 10_000  # big enough for exact tests
