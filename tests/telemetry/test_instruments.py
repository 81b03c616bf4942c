"""Typed instruments: counters, gauges, histograms."""

import pytest

from repro.telemetry.instruments import Counter, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("flits_total")
        assert c.value == 0.0
        c.inc()
        c.inc(3.5)
        assert c.value == 4.5

    def test_rejects_negative_increments(self):
        c = Counter("flits_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_rejects_invalid_names(self):
        with pytest.raises(ValueError, match="invalid instrument name"):
            Counter("bad name with spaces")

    def test_samples_expose_one_value(self):
        c = Counter("flits_total")
        c.inc(2)
        assert c.samples() == [("flits_total", 2.0)]


class TestGauge:
    def test_moves_both_directions(self):
        g = Gauge("occupancy")
        g.set(10)
        g.inc(-4)
        assert g.value == 6.0
        assert g.samples() == [("occupancy", 6.0)]


class TestHistogram:
    def test_bucket_counts_are_cumulative_with_inf(self):
        h = Histogram("lat", buckets=(10.0, 20.0))
        for v in (5, 15, 15, 999):
            h.observe(v)
        assert h.bucket_counts() == [
            (10.0, 1), (20.0, 3), (float("inf"), 4)
        ]
        assert h.count == 4
        assert h.sum == pytest.approx(1034.0)

    def test_boundary_value_lands_in_lower_bucket(self):
        h = Histogram("lat", buckets=(10.0, 20.0))
        h.observe(10.0)  # le="10" is inclusive
        assert h.bucket_counts()[0] == (10.0, 1)

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("lat", buckets=(10.0, 10.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("lat", buckets=(20.0, 10.0))

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("lat", buckets=())

    def test_samples_follow_prometheus_shape(self):
        h = Histogram("lat", buckets=(10.0,))
        h.observe(3)
        names = [name for name, _ in h.samples()]
        assert names == [
            'lat_bucket{le="10"}',
            'lat_bucket{le="+Inf"}',
            "lat_sum",
            "lat_count",
        ]
