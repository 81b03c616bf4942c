"""The Telemetry hub: registry semantics, event tracing, sinks."""

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.sinks import read_events_jsonl, render_prometheus


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        tel = Telemetry()
        a = tel.counter("noc_flits_total", "help")
        b = tel.counter("noc_flits_total")
        assert a is b

    def test_type_conflict_raises(self):
        tel = Telemetry()
        tel.counter("x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            tel.gauge("x_total")

    def test_snapshot_flattens_all_samples(self):
        tel = Telemetry()
        tel.counter("a_total").inc(2)
        tel.gauge("b").set(7)
        snap = tel.snapshot()
        assert snap["a_total"] == 2.0
        assert snap["b"] == 7.0


class TestTracing:
    def test_stride_gates_sampling(self):
        tel = Telemetry(trace_stride=100)
        assert tel.sampled(0)
        assert not tel.sampled(50)
        assert tel.sampled(200)

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            Telemetry(trace_stride=0)

    def test_disabled_hub_records_nothing(self):
        tel = Telemetry.disabled()
        tel.record("sample", 10, value=1)
        assert tel.events == []

    def test_max_events_cap_counts_drops(self):
        tel = Telemetry(max_events=2)
        for cycle in range(5):
            tel.record("sample", cycle)
        assert len(tel.events) == 2
        assert tel.dropped_events == 3

    def test_events_of_filters_by_kind(self):
        tel = Telemetry()
        tel.record("mode", 1, router=0)
        tel.record("sample", 2)
        tel.record("mode", 3, router=1)
        assert [e["cycle"] for e in tel.events_of("mode")] == [1, 3]


class TestSinks:
    def test_jsonl_trace_round_trips(self, tmp_path):
        tel = Telemetry()
        tel.record("packet", 7, src=0, dst=9, latency=11)
        tel.record("final", 100, injected=1, completed=1)
        path = tel.write_trace(tmp_path / "trace.jsonl")
        assert read_events_jsonl(path) == tel.events

    def test_jsonl_reader_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "sample"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed JSONL"):
            read_events_jsonl(bad)

    def test_prometheus_snapshot_has_help_type_and_samples(self, tmp_path):
        tel = Telemetry()
        tel.counter("noc_flits_total", "Flits moved").inc(5)
        path = tel.write_metrics(tmp_path / "metrics.prom")
        text = path.read_text()
        assert "# HELP noc_flits_total Flits moved" in text
        assert "# TYPE noc_flits_total counter" in text
        assert "noc_flits_total 5" in text

    def test_prometheus_formats_inf_bucket(self):
        tel = Telemetry()
        tel.histogram("lat", buckets=(10.0,)).observe(99)
        text = render_prometheus(tel.instruments())
        assert 'lat_bucket{le="+Inf"} 1' in text
