"""The Telemetry hub: event tracing and the JSONL envelope."""

import json

import pytest

from repro.telemetry import EVENTS_SCHEMA, Telemetry
from repro.telemetry.sinks import read_events_jsonl


class TestTracing:
    def test_stride_gates_sampling(self):
        tel = Telemetry(trace_stride=100)
        assert tel.sampled(0)
        assert not tel.sampled(50)
        assert tel.sampled(200)

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            Telemetry(trace_stride=0)

    def test_max_events_cap_counts_drops(self):
        tel = Telemetry(max_events=2)
        for cycle in range(5):
            tel.record("sample", cycle)
        assert len(tel.events) == 2
        assert tel.dropped_events == 3

    def test_final_record_passes_the_cap_and_reports_the_drops(self):
        tel = Telemetry(max_events=2)
        for cycle in range(5):
            tel.record("sample", cycle)
        tel.finish(5, injected=1)
        assert tel.events[-1] == {
            "kind": "final", "cycle": 5, "injected": 1, "dropped_events": 3,
        }

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
        header, *events = read_events_jsonl(path)
        assert header == {"kind": "header", "schema": EVENTS_SCHEMA, "scope": "run"}
        assert events == tel.events

    def test_lines_lead_with_the_envelope(self, tmp_path):
        tel = Telemetry()
        tel.record("packet", 7, src=0, dst=9)
        path = tel.write_trace(tmp_path / "trace.jsonl")
        line = path.read_text().splitlines()[1]
        assert list(json.loads(line)) == ["kind", "cycle", "dst", "src"]

    def test_jsonl_reader_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "sample"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed JSONL"):
            read_events_jsonl(bad)
