"""Campaign-level structured logging: the progress-event JSONL sink."""

import pytest

from repro.config import SECDED_BASELINE
from repro.exec.executors import CellExecutor, ProgressEvent
from repro.exec.spec import parsec_cell
from repro.telemetry import (
    EVENTS_SCHEMA,
    CampaignTraceSink,
    SimProfiler,
    chain_progress,
    describe_progress_event,
)
from repro.telemetry.sinks import read_events_jsonl


def spec():
    return parsec_cell(SECDED_BASELINE, "swa", 900, seed=3)


def event(kind, **kw):
    defaults = dict(spec=spec(), completed=1, total=2)
    defaults.update(kw)
    return ProgressEvent(kind, **defaults)


class TestDescribe:
    def test_flattens_done_event(self):
        record = describe_progress_event(
            event("done", seconds=1.25, duration_s=1.5)
        )
        assert record["kind"] == "done"
        assert record["label"] == "SECDED/swa"
        assert record["completed"] == 1
        assert record["total"] == 2
        assert record["duration_s"] == pytest.approx(1.5)
        assert record["runtime_s"] == pytest.approx(1.25)
        assert record["spec_hash"] == spec().content_hash()

    def test_failure_keeps_error_but_not_traceback(self):
        record = describe_progress_event(
            event("failed", error="ValueError: boom", traceback="long text")
        )
        assert record["error"] == "ValueError: boom"
        assert "traceback" not in record


def sink_at(path, clock=lambda: 0.0):
    return CampaignTraceSink(path, clock=clock)


class TestSink:
    def test_writes_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "campaign-events.jsonl"
        ticks = iter([1.5, 2.25])
        with sink_at(path, clock=lambda: next(ticks)) as sink:
            sink(event("start", completed=0))
            sink(event("done", duration_s=0.5))
        assert sink.events_written == 2
        header, *records = read_events_jsonl(path)
        assert header == {
            "kind": "header", "schema": EVENTS_SCHEMA, "scope": "campaign",
        }
        assert [r["kind"] for r in records] == ["start", "done"]
        assert [r["t_s"] for r in records] == [1.5, 2.25]

    def test_appends_across_sink_instances(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with sink_at(path) as sink:
            sink(event("start", completed=0))
        with sink_at(path) as sink:
            sink(event("done"))
        kinds = [r["kind"] for r in read_events_jsonl(path)]
        assert kinds == ["header", "start", "header", "done"]

    def test_records_a_real_executor_run(self, tmp_path):
        def ok(s):
            return {"runtime_seconds": 0.0, "metrics": {}}

        path = tmp_path / "log.jsonl"
        with sink_at(path, clock=SimProfiler().now_s) as sink:
            CellExecutor(fn=ok).run([spec()], progress=sink)
        kinds = [r["kind"] for r in read_events_jsonl(path)]
        assert kinds == ["header", "start", "done"]


class TestSpanRecorder:
    def test_records_spans_for_done_and_failed_only(self):
        profiler = SimProfiler()
        observe = profiler.record_job
        observe(event("start", completed=0))
        observe(event("done", duration_s=0.25))
        observe(event("failed", duration_s=0.1, error="x"))
        assert [(s.name, s.category) for s in profiler.spans] == [
            ("SECDED/swa", "cell"),
            ("SECDED/swa", "cell-failed"),
        ]
        assert profiler.spans[0].duration_s == pytest.approx(0.25)


class TestChain:
    def test_none_entries_collapse(self):
        assert chain_progress(None, None) is None

    def test_single_callback_passes_through(self):
        cb = lambda e: None
        assert chain_progress(None, cb) is cb

    def test_fan_out_calls_in_order(self):
        seen = []
        chained = chain_progress(
            lambda e: seen.append(("a", e.kind)),
            None,
            lambda e: seen.append(("b", e.kind)),
        )
        chained(event("done"))
        assert seen == [("a", "done"), ("b", "done")]
