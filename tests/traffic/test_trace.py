"""Tests for trace events and serialization."""

import pytest

from repro.traffic.trace import Trace, TraceEvent


class TestTraceEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(-1, 0, 1, 4)
        with pytest.raises(ValueError):
            TraceEvent(0, 3, 3, 4)
        with pytest.raises(ValueError):
            TraceEvent(0, 0, 1, 0)

    def test_ordering_by_cycle(self):
        events = [TraceEvent(5, 0, 1, 4), TraceEvent(1, 2, 3, 4)]
        assert sorted(events)[0].cycle == 1


class TestTrace:
    def test_sorts_events(self):
        trace = Trace([TraceEvent(9, 0, 1, 4), TraceEvent(2, 1, 0, 4)])
        assert [e.cycle for e in trace] == [2, 9]

    def test_duration_and_flits(self):
        trace = Trace([TraceEvent(0, 0, 1, 4), TraceEvent(10, 1, 0, 2)])
        assert trace.duration == 10
        assert trace.total_flits == 6

    def test_offered_load(self):
        trace = Trace([TraceEvent(0, 0, 1, 4), TraceEvent(9, 1, 0, 4)])
        # 8 flits over 10 cycles and 4 nodes.
        assert trace.offered_load(4) == pytest.approx(0.2)

    def test_empty_trace(self):
        trace = Trace([])
        assert len(trace) == 0
        assert trace.duration == 0
        assert trace.offered_load(4) == 0.0

    def test_slice_rebases(self):
        trace = Trace([TraceEvent(5, 0, 1, 4), TraceEvent(15, 1, 0, 4)])
        part = trace.slice(5, 10)
        assert len(part) == 1
        assert part.events[0].cycle == 0

    def test_slice_validation(self):
        with pytest.raises(ValueError):
            Trace([]).slice(5, 1)

    def test_save_load_roundtrip(self, tmp_path):
        trace = Trace(
            [TraceEvent(0, 0, 1, 4, True), TraceEvent(3, 2, 7, 4, False)],
            name="mini",
        )
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "mini"
        assert loaded.events == trace.events
        assert loaded.events[0].reply is True
