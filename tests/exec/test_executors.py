"""Executor layer: retries, crash recovery, progress events.

One scheduler serves ``jobs == 1`` (in process) and ``jobs > 1`` (process
pool), so every law here runs at both; only what needs a worker process to
exist — a crash — is pinned to ``jobs=2``.
"""

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import SECDED_BASELINE
from repro.exec.executors import CellExecutionError, CellExecutor, _InProcessPool
from repro.exec.resilience import ExecutorInterrupted, ShutdownFlag
from repro.exec.spec import parsec_cell

both_jobs = pytest.mark.parametrize("jobs", [1, 2])


def make_specs(n=3, duration=900):
    return [
        parsec_cell(SECDED_BASELINE, "swa", duration, seed=10 + i)
        for i in range(n)
    ]


@pytest.fixture
def sentinels(tmp_path, monkeypatch):
    """Directory where the ``*_once`` cells leave one file per spec seen."""
    monkeypatch.setenv("REPRO_TEST_SENTINEL_DIR", str(tmp_path))
    return tmp_path


# Module-level so worker processes can unpickle them by reference.

def _ok_cell(spec):
    return {"runtime_seconds": 0.0, "metrics": {"seed": spec.seed}}


def _first_sight(spec):
    """True the first time any process sees *spec* (sentinel file)."""
    sentinel = os.path.join(
        os.environ["REPRO_TEST_SENTINEL_DIR"], spec.content_hash()
    )
    if os.path.exists(sentinel):
        return False
    with open(sentinel, "w") as fh:
        fh.write("seen")
    return True


def _fail_once_cell(spec):
    if _first_sight(spec):
        raise RuntimeError("transient")
    return _ok_cell(spec)


def _crash_once_cell(spec):
    """Hard-crash the worker on first sight of each spec."""
    if _first_sight(spec):
        os._exit(17)
    return _ok_cell(spec)


def _slowish_cell(spec):
    time.sleep(0.01)
    return _ok_cell(spec)


def _always_broken_cell(spec):
    raise RuntimeError("doomed")


def _doomed_seed11_cell(spec):
    if spec.seed == 11:
        raise RuntimeError("doomed")
    return _ok_cell(spec)


class _RefusesSecondSubmit:
    """Pool stand-in for a worker dying between a wait and a submit: the
    first cell stays in flight, the second submit raises."""

    def __init__(self):
        self.submits = 0
        self.shut_down = False

    def submit(self, fn, spec):
        self.submits += 1
        if self.submits == 2:
            raise BrokenProcessPool("a child process terminated abruptly")
        return Future()

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shut_down = True


@both_jobs
class TestCellExecutor:
    def test_results_align_with_specs(self, jobs):
        results = CellExecutor(jobs=jobs, fn=_ok_cell).run(make_specs(4))
        assert [r["metrics"]["seed"] for r in results] == [10, 11, 12, 13]

    def test_retries_once_then_succeeds(self, jobs, sentinels):
        events = []
        results = CellExecutor(jobs=jobs, fn=_fail_once_cell).run(
            make_specs(1), progress=events.append
        )
        assert [e.kind for e in events] == ["start", "retry", "done"]
        assert events[1].attempt == 1
        assert results[0]["metrics"]["seed"] == 10

    def test_persistent_failure_raises(self, jobs):
        with pytest.raises(CellExecutionError, match="doomed"):
            CellExecutor(jobs=jobs, fn=_always_broken_cell).run(make_specs(1))

    def test_progress_event_sequence(self, jobs):
        events = []
        specs = make_specs(3)
        CellExecutor(jobs=jobs, fn=_ok_cell).run(specs, progress=events.append)
        for spec in specs:
            mine = [e.kind for e in events if e.spec == spec]
            assert mine == ["start", "done"]
        done = [e for e in events if e.kind == "done"]
        assert [e.completed for e in done] == [1, 2, 3]
        assert all(e.total == 3 for e in events)
        assert all(e.duration_s > 0.0 for e in done)
        if jobs == 1:  # in process: one cell at a time, in spec order
            assert [e.kind for e in events] == ["start", "done"] * 3

    def test_done_events_carry_monotonic_duration(self, jobs):
        events = []
        CellExecutor(jobs=jobs, fn=_slowish_cell).run(
            make_specs(1), progress=events.append
        )
        done = [e for e in events if e.kind == "done"][0]
        assert done.duration_s >= 0.01

    def test_failure_events_carry_duration(self, jobs):
        events = []
        with pytest.raises(CellExecutionError):
            CellExecutor(jobs=jobs, fn=_always_broken_cell).run(
                make_specs(1), progress=events.append
            )
        kinds = {e.kind: e for e in events}
        assert kinds["retry"].duration_s >= 0.0
        assert kinds["failed"].duration_s >= 0.0
        assert (kinds["retry"].attempt, kinds["failed"].attempt) == (1, 2)


@both_jobs
class TestCampaignWideAccounting:
    def test_offsets_shift_the_counters(self, jobs):
        events = []
        CellExecutor(jobs=jobs, fn=_ok_cell).run(
            make_specs(3), progress=events.append,
            completed_offset=2, campaign_total=5,
        )
        assert all(e.total == 5 for e in events)  # never shrinks
        counts = [e.completed for e in events]
        assert counts == sorted(counts) and counts[0] == 2
        assert [e.completed for e in events if e.kind == "done"] == [3, 4, 5]
        if jobs == 1:
            assert [(e.kind, e.completed) for e in events] == [
                ("start", 2), ("done", 3), ("start", 3), ("done", 4),
                ("start", 4), ("done", 5),
            ]

    def test_on_result_reports_index_and_payload(self, jobs):
        landed = []
        CellExecutor(jobs=jobs, fn=_ok_cell).run(
            make_specs(2),
            on_result=lambda i, spec, p: landed.append(
                (i, p["metrics"]["seed"])
            ),
        )
        assert sorted(landed) == [(0, 10), (1, 11)]


@both_jobs
class TestGracefulCancel:
    def _stop_after_first(self, flag):
        def observe(event):
            if event.kind == "done":
                flag.set("test-shutdown")

        return observe

    def test_drains_in_flight_and_drops_pending(self, jobs):
        flag = ShutdownFlag()
        landed = []
        with pytest.raises(ExecutorInterrupted) as exc_info:
            CellExecutor(jobs=jobs, fn=_ok_cell).run(
                make_specs(4), progress=self._stop_after_first(flag),
                cancel=flag,
                on_result=lambda i, spec, p: landed.append(i),
            )
        # Every dispatched cell (``jobs`` of them) was drained and reported
        # through on_result; the undispatched ones stay unfinished for
        # resume.
        assert exc_info.value.completed == jobs
        assert exc_info.value.reason == "test-shutdown"
        assert sorted(landed) == list(range(jobs))

    def test_completed_count_excludes_the_offset(self, jobs):
        flag = ShutdownFlag()
        with pytest.raises(ExecutorInterrupted) as exc_info:
            CellExecutor(jobs=jobs, fn=_ok_cell).run(
                make_specs(4), progress=self._stop_after_first(flag),
                cancel=flag, completed_offset=4, campaign_total=8,
            )
        assert exc_info.value.completed == jobs  # batch-relative, not 4 + jobs


class TestProcessPool:
    """What only a worker process can do: die."""

    def test_worker_crash_is_retried_once(self, sentinels):
        specs = make_specs(2)
        # Two retries: a cell is charged for its own crash and once more
        # when its neighbour's crash breaks the pool under it.
        results = CellExecutor(jobs=2, retries=2, fn=_crash_once_cell).run(specs)
        assert [r["metrics"]["seed"] for r in results] == [10, 11]
        # Each cell crashed its worker exactly once before succeeding.
        assert len(list(sentinels.iterdir())) == 2

    def test_a_refused_submit_rebuilds_the_pool_and_charges_only_in_flight(
        self, monkeypatch
    ):
        pools = []

        def make_pool(executor):
            pools.append(_InProcessPool() if pools else _RefusesSecondSubmit())
            return pools[-1]

        monkeypatch.setattr(CellExecutor, "_pool", make_pool)
        events = []
        specs = make_specs(2)
        with pytest.raises(CellExecutionError, match="doomed"):
            CellExecutor(jobs=2, retries=1, fn=_doomed_seed11_cell).run(
                specs, progress=events.append
            )
        assert pools[0].shut_down and len(pools) == 2

        def seen(spec):
            return [(e.kind, e.attempt) for e in events if e.spec == spec]

        # The in-flight cell is charged for the broken pool, then succeeds.
        assert seen(specs[0]) == [("start", 0), ("retry", 1), ("done", 0)]
        assert events[2].error == "worker pool broke while cell was in flight"
        # The refused cell starts once and keeps its whole retry budget.
        assert seen(specs[1]) == [("start", 0), ("retry", 1), ("failed", 2)]
