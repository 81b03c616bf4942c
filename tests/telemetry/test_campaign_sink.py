"""Campaign-level structured logging: the progress-event JSONL sink."""

import pytest

from repro.config import SECDED_BASELINE
from repro.exec.executors import CellExecutor, ProgressEvent
from repro.exec.spec import parsec_cell
from repro.telemetry import (
    CampaignTraceSink,
    PhaseProfiler,
    cell_span_recorder,
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


class TestSink:
    def test_writes_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "campaign-events.jsonl"
        with CampaignTraceSink(path) as sink:
            sink(event("start", completed=0))
            sink(event("done", duration_s=0.5))
        assert sink.events_written == 2
        records = read_events_jsonl(path)
        assert [r["kind"] for r in records] == ["start", "done"]
        assert all("t_s" in r for r in records)

    def test_appends_across_sink_instances(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with CampaignTraceSink(path) as sink:
            sink(event("start", completed=0))
        with CampaignTraceSink(path) as sink:
            sink(event("done"))
        assert len(read_events_jsonl(path)) == 2

    def test_records_a_real_executor_run(self, tmp_path):
        def ok(s):
            return {"runtime_seconds": 0.0, "metrics": {}}

        path = tmp_path / "log.jsonl"
        with CampaignTraceSink(path) as sink:
            CellExecutor(fn=ok).run([spec()], progress=sink)
        kinds = [r["kind"] for r in read_events_jsonl(path)]
        assert kinds == ["start", "done"]


class TestSpanRecorder:
    def test_records_spans_for_done_and_failed_only(self):
        profiler = PhaseProfiler()
        observe = cell_span_recorder(profiler)
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
