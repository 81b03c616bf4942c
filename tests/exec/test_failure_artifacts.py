"""Failure post-mortems: traceback capture and `.failure.json` artifacts."""

import json

import pytest

from repro.config import SECDED_BASELINE
from repro.exec.engine import CampaignEngine
from repro.exec.executors import CellExecutionError, CellExecutor
from repro.exec.spec import parsec_cell
from repro.exec.store import ResultStore

both_jobs = pytest.mark.parametrize("jobs", [1, 2])


def make_spec(seed=5):
    return parsec_cell(SECDED_BASELINE, "swa", 700, seed=seed)


# Module-level so worker processes can pickle them by reference.

def _doomed_cell(spec):
    raise RuntimeError("doomed in the simulator core")


def _zero_div_cell(spec):
    return {"metrics": 1 // 0}


class WeirdError(Exception):
    """Not a recognized cell-failure class."""


def _weird_cell(spec):
    raise WeirdError("harness bug")


class TestTracebackCapture:
    @both_jobs
    def test_error_carries_traceback(self, jobs):
        with pytest.raises(CellExecutionError) as exc_info:
            CellExecutor(jobs=jobs, retries=0, fn=_doomed_cell).run([make_spec()])
        err = exc_info.value
        assert err.cause == "RuntimeError: doomed in the simulator core"
        assert "_doomed_cell" in err.traceback_text
        assert "RuntimeError: doomed in the simulator core" in err.traceback_text

    def test_pool_error_carries_remote_traceback(self):
        executor = CellExecutor(jobs=2, retries=0, fn=_zero_div_cell)
        with pytest.raises(CellExecutionError) as exc_info:
            executor.run([make_spec()])
        # The worker-side frames survive the process boundary.
        assert "_zero_div_cell" in exc_info.value.traceback_text
        assert "ZeroDivisionError" in exc_info.value.traceback_text

    @both_jobs
    def test_progress_events_include_traceback(self, jobs):
        events = []
        with pytest.raises(CellExecutionError):
            CellExecutor(jobs=jobs, retries=1, fn=_doomed_cell).run(
                [make_spec()], progress=events.append
            )
        kinds = [e.kind for e in events]
        assert kinds == ["start", "retry", "failed"]
        for event in events[1:]:
            assert "_doomed_cell" in event.traceback

    @both_jobs
    def test_unrecognized_exception_propagates_immediately(self, jobs):
        events = []
        with pytest.raises(WeirdError):
            CellExecutor(jobs=jobs, retries=2, fn=_weird_cell).run(
                [make_spec()], progress=events.append
            )
        # Never retried: it is not a cell failure.
        assert [e.kind for e in events] == ["start"]


class TestFailureArtifacts:
    def test_engine_persists_failure_artifact(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = make_spec()

        engine = CampaignEngine(
            executor=CellExecutor(retries=0, fn=_doomed_cell), store=store
        )
        with pytest.raises(CellExecutionError):
            engine.run([spec])
        failure_path = store.failure_path_for(spec)
        assert failure_path.exists()
        artifact = json.loads(failure_path.read_text())
        assert artifact["kind"] == "failure"
        assert artifact["spec_hash"] == spec.content_hash()
        assert artifact["cause"] == "RuntimeError: doomed in the simulator core"
        assert "_doomed_cell" in artifact["traceback"]

    def test_failure_artifact_is_not_a_cache_entry(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = make_spec()
        store.put_failure(spec, "RuntimeError: boom", "Traceback ...")
        assert store.get(spec) is None  # failures never serve as results

    def test_failure_path_sits_next_to_artifact(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = make_spec()
        assert (
            store.failure_path_for(spec).parent == store.path_for(spec).parent
        )
        assert store.failure_path_for(spec).name.endswith(".failure.json")
