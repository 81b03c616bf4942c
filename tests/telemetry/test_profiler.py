"""The profiler's orchestration spans: phases, job spans, summaries,
Chrome trace-event export."""

import json

import pytest

from repro.telemetry import CHROME_TRACE_SCHEMA, SimProfiler


def fake_clock(values):
    """A deterministic clock yielding *values* in order."""
    it = iter(values)
    return lambda: next(it)


class TestSpans:
    def test_phase_records_named_interval(self):
        # Clock reads: epoch, start, end.
        prof = SimProfiler(clock=fake_clock([100.0, 101.0, 103.5]))
        with prof.phase("engine.run", cells=4):
            pass
        (span,) = prof.spans
        assert span.name == "engine.run"
        assert span.start_s == pytest.approx(1.0)
        assert span.duration_s == pytest.approx(2.5)
        assert span.end_s == pytest.approx(3.5)
        assert span.args == {"cells": 4}

    def test_phase_records_even_when_body_raises(self):
        prof = SimProfiler(clock=fake_clock([0.0, 1.0, 2.0]))
        with pytest.raises(RuntimeError):
            with prof.phase("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in prof.spans] == ["doomed"]

    def test_record_span_anchors_to_end_now(self):
        # Clock reads: epoch, now (record_span's end anchor).
        prof = SimProfiler(clock=fake_clock([0.0, 10.0]))
        span = prof.record_span("cell/swa", 4.0, category="cell")
        assert span.start_s == pytest.approx(6.0)
        assert span.end_s == pytest.approx(10.0)

    def test_record_span_rejects_negative_duration(self):
        prof = SimProfiler(clock=fake_clock([0.0]))
        with pytest.raises(ValueError, match="negative"):
            prof.record_span("cell", -1.0)

    def test_summary_groups_by_name_in_first_seen_order(self):
        prof = SimProfiler(clock=fake_clock([0.0] + [float(i) for i in range(10)]))
        prof.record_span("b", 1.0)
        prof.record_span("a", 2.0)
        prof.record_span("b", 3.0)
        assert prof.summary() == [("b", 2, 4.0), ("a", 1, 2.0)]


class TestChromeTrace:
    def test_export_schema(self, tmp_path):
        prof = SimProfiler(clock=fake_clock([0.0, 1.0, 3.0]))
        with prof.phase("simulate", benchmark="swa"):
            pass
        path = prof.write_chrome_trace(tmp_path / "profile.json")
        doc = json.loads(path.read_text())
        assert doc["otherData"]["schema"] == CHROME_TRACE_SCHEMA
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]  # no step was profiled: spans only
        assert event["ph"] == "X"
        assert event["tid"] == 0
        assert event["ts"] == pytest.approx(1e6)  # microseconds
        assert event["dur"] == pytest.approx(2e6)
        assert event["args"] == {"benchmark": "swa"}

    def test_events_sorted_by_start_time(self):
        prof = SimProfiler(clock=fake_clock([0.0, 10.0, 4.0]))
        prof.record_span("late", 1.0)   # ends at 10 -> starts at 9
        prof.record_span("early", 1.0)  # ends at 4 -> starts at 3
        names = [e["name"] for e in prof.to_chrome_trace()["traceEvents"]]
        assert names == ["early", "late"]
