"""Engine: serial/parallel equivalence, caching, dedup, corruption recovery,
failure policies and resume."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import FaultConfig, INTELLINOC, SECDED_BASELINE
from repro.core.experiment import ExperimentRunner
from repro.exec.engine import CampaignEngine
from repro.exec.executors import CellExecutionError, CellExecutor, ProgressEvent
from repro.exec.resilience import CampaignInterrupted, ShutdownFlag
from repro.exec.spec import parsec_cell
from repro.exec.store import ResultStore
from repro.exec.worker import execute_job
from repro.report.paper import PaperEvaluator
from repro.telemetry import SimProfiler, chain_progress


def _fail_seed10_cell(spec):
    if spec.seed == 10:
        raise RuntimeError("doomed cell")
    return execute_job(spec)


def small_specs(n=2, duration=500):
    return [
        parsec_cell(SECDED_BASELINE, "swa", duration, seed=10 + i)
        for i in range(n)
    ]


def campaign_specs():
    """A small grid including an RL cell (pre-training included in the job)."""
    return [
        parsec_cell(SECDED_BASELINE, "swa", 800, seed=5),
        parsec_cell(SECDED_BASELINE, "bod", 800, seed=5),
        parsec_cell(INTELLINOC, "swa", 800, seed=5, pretrain_cycles=800),
    ]


#: The two campaign drivers, each built from engine options alone.
DRIVERS = {
    "runner": ExperimentRunner,
    "paper": PaperEvaluator,
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
class TestEngineOptions:
    """One recipe (`EngineOptions.engine`) behind both drivers."""

    def test_defaults_build_a_bare_serial_engine(self, driver):
        built = DRIVERS[driver]()
        assert built._engine is None  # lazy: nothing opened at construction
        engine = built.engine
        assert built.engine is engine
        assert (engine.executor.jobs, engine.executor.timeout_s) == (1, None)
        assert engine.store is None and engine.progress is None

    def test_the_same_options_build_the_same_engine(self, driver, tmp_path):
        seen = []
        profiler = SimProfiler()
        flag = ShutdownFlag()
        engine = DRIVERS[driver](
            jobs=2, cache_dir=tmp_path / "cache", timeout_s=9.0,
            failure_policy="quarantine", cancel=flag,
            progress=seen.append, profiler=profiler,
        ).engine
        assert (engine.executor.jobs, engine.executor.timeout_s) == (2, 9.0)
        assert engine.store.cache_dir == tmp_path / "cache"
        assert engine.failure_policy == "quarantine" and engine.cancel is flag
        # Chained progress: the caller's callback, then the profiler's spans.
        spec = small_specs(1)[0]
        engine.progress(ProgressEvent("done", spec, 1, 1, duration_s=0.5))
        assert [e.kind for e in seen] == ["done"]
        assert [span.name for span in profiler.spans] == [spec.label]

    def test_use_cache_alone_opens_the_default_store(self, driver):
        from repro.exec.store import default_cache_dir

        engine = DRIVERS[driver](use_cache=True).engine
        assert engine.store.cache_dir == default_cache_dir()


@pytest.fixture(scope="module")
def serial_metrics():
    return CampaignEngine().run(campaign_specs()).metrics


class TestSerialParallelEquivalence:
    def test_parallel_campaign_is_bit_identical(self, serial_metrics):
        parallel = CampaignEngine(executor=CellExecutor(jobs=2)).run(
            campaign_specs()
        )
        assert parallel.metrics == serial_metrics

    def test_metrics_fields_fully_populated(self, serial_metrics):
        for m in serial_metrics:
            assert m.packets_completed > 0
            assert m.packets_injected >= m.packets_completed
            assert m.execution_cycles > 0
            assert m.latency.count > 0


class TestCaching:
    def test_second_pass_makes_zero_executor_submissions(
        self, tmp_path, serial_metrics
    ):
        store = ResultStore(tmp_path / "cache")
        first = CampaignEngine(executor=CellExecutor(), store=store).run(
            campaign_specs()
        )
        assert first.executed == len(campaign_specs())
        assert first.cache_hits == 0

        second = CampaignEngine(executor=CellExecutor(), store=store).run(
            campaign_specs()
        )
        assert second.executed == 0
        assert second.cache_hits == len(campaign_specs())
        assert second.metrics == first.metrics == serial_metrics

    def test_changed_fault_config_invalidates_cache(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = parsec_cell(SECDED_BASELINE, "swa", 700, seed=6)
        changed = parsec_cell(
            SECDED_BASELINE, "swa", 700, seed=6,
            faults=FaultConfig(base_bit_error_rate=1e-9),
        )
        CampaignEngine(executor=CellExecutor(), store=store).run([spec])
        report = CampaignEngine(executor=CellExecutor(), store=store).run(
            [changed]
        )
        assert report.executed == 1  # different content hash, not a hit
        assert report.cache_hits == 0

    def test_corrupted_cache_file_falls_back_to_simulation(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = parsec_cell(SECDED_BASELINE, "swa", 700, seed=6)
        first = CampaignEngine(executor=CellExecutor(), store=store).run([spec])
        store.path_for(spec).write_text('{"schema": "garbage"')

        engine = CampaignEngine(executor=CellExecutor(), store=store)
        report = engine.run([spec])
        assert report.executed == 1
        assert report.metrics == first.metrics
        # The artifact was rewritten and is healthy again.
        assert store.get(spec) is not None

    def test_cached_events_reported(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = parsec_cell(SECDED_BASELINE, "swa", 700, seed=6)
        CampaignEngine(executor=CellExecutor(), store=store).run([spec])
        events = []
        CampaignEngine(
            executor=CellExecutor(), store=store, progress=events.append
        ).run([spec])
        assert [e.kind for e in events] == ["cached"]


class TestDedup:
    def test_duplicate_specs_execute_once(self):
        spec = parsec_cell(SECDED_BASELINE, "swa", 700, seed=6)
        report = CampaignEngine(executor=CellExecutor()).run([spec, spec, spec])
        assert report.executed == 1
        assert report.deduplicated == 2
        assert report.metrics[0] == report.metrics[1] == report.metrics[2]


class TestFailurePolicies:
    def _engine(self, policy, store=None, **kwargs):
        return CampaignEngine(
            executor=CellExecutor(retries=0, fn=_fail_seed10_cell),
            store=store,
            failure_policy=policy,
            **kwargs,
        )

    def test_abort_raises(self):
        with pytest.raises(CellExecutionError, match="doomed cell"):
            self._engine("abort").run(small_specs())

    def test_quarantine_degrades_to_partial_results(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = small_specs()
        report = self._engine("quarantine", store).run(specs)
        assert report.metrics[0] is None
        assert report.metrics[1] is not None
        assert not report.ok
        assert len(report.failed) == 1
        assert report.failed[0].cause == "RuntimeError: doomed cell"
        assert report.failed[0].attempts == 1
        assert (report.executed, report.cache_hits) == (2, 0)
        # The failure is a persisted post-mortem; the survivor is cached.
        assert store.failure_path_for(specs[0]).exists()
        assert store.get(specs[1]) is not None

    def test_skip_persists_nothing_for_the_failed_cell(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = small_specs()
        report = self._engine("skip", store).run(specs)
        assert report.metrics[0] is None and report.metrics[1] is not None
        assert [f.spec for f in report.failed] == [specs[0]]
        assert not store.failure_path_for(specs[0]).exists()
        # A later run retries the skipped cell from scratch.
        rerun = self._engine("skip", store).run(specs)
        assert rerun.executed == 1
        assert rerun.cache_hits == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_a_failed_cell_is_reported_once(self, policy, jobs):
        events = []
        profiler = SimProfiler()
        engine = CampaignEngine(
            executor=CellExecutor(jobs=jobs, retries=0, fn=_fail_seed10_cell),
            failure_policy=policy,
            progress=chain_progress(events.append, profiler.record_job),
        )
        engine.run(small_specs(3)[::-1])  # the doomed cell goes last
        kinds = [e.kind for e in events]
        assert kinds.count("failed") == 1
        assert kinds.count("quarantined") == (policy == "quarantine")
        # The campaign-wide counter never runs backwards.
        counts = [e.completed for e in events]
        assert counts == sorted(counts)
        assert all(e.total == 3 for e in events)
        # One span per cell, the failed one included once.
        categories = sorted(span.category for span in profiler.spans)
        assert categories == ["cell", "cell", "cell-failed"]

    def test_quarantined_accumulates_across_runs(self, tmp_path):
        engine = self._engine("quarantine")
        engine.run(small_specs())
        engine.run(small_specs(duration=501))
        assert len(engine.quarantined) == 2

    def test_quarantine_events_emitted(self):
        events = []
        engine = self._engine("quarantine")
        engine.progress = events.append
        engine.run(small_specs())
        assert [e.kind for e in events if e.kind == "quarantined"] != []


class TestStoreWriteFailure:
    def test_cache_write_failure_degrades_to_a_warning(self, tmp_path):
        class ENOSPCStore(ResultStore):
            def put(self, spec, payload):
                raise OSError(28, "chaos: no space left on device")

        store = ENOSPCStore(tmp_path / "cache")
        spec = small_specs(1)[0]
        report = CampaignEngine(executor=CellExecutor(), store=store).run(
            [spec]
        )
        # The result still reaches the report; only the cache missed out.
        assert report.executed == 1
        assert report.metrics[0] is not None
        assert store.get(spec) is None


#: A campaign of four cells in a child process that dies without any
#: cleanup (``os._exit``) right after its second ``done``.
HARD_KILL = """
import os, sys
from repro.config import SECDED_BASELINE
from repro.exec.engine import CampaignEngine
from repro.exec.spec import parsec_cell
from repro.exec.store import ResultStore

done = []

def die_after_two(event):
    if event.kind == "done":
        done.append(event)
        if len(done) == 2:
            os._exit(9)

specs = [parsec_cell(SECDED_BASELINE, "swa", 500, seed=10 + i) for i in range(4)]
CampaignEngine(store=ResultStore(sys.argv[1]), progress=die_after_two).run(specs)
"""


class TestJournalAndResume:
    """The result store is the campaign's journal: every job's artifact
    lands before its ``done``, so rerunning on the same store resumes."""

    def test_journal_records_every_completion(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = small_specs()
        stored_at_done = []

        def check(event):
            if event.kind == "done":
                stored_at_done.append(store.get(event.spec) is not None)

        CampaignEngine(
            executor=CellExecutor(), store=store, progress=check
        ).run(specs)
        assert stored_at_done == [True, True]

    def test_interrupt_then_resume_runs_only_the_remainder(self, tmp_path):
        specs = small_specs(3)
        store = ResultStore(tmp_path / "cache")
        flag = ShutdownFlag()

        def stop_after_first(event):
            if event.kind == "done":
                flag.set("test-shutdown")

        engine = CampaignEngine(
            executor=CellExecutor(), store=store,
            cancel=flag, progress=stop_after_first,
        )
        with pytest.raises(CampaignInterrupted) as exc_info:
            engine.run(specs)
        assert exc_info.value.completed == 1
        assert exc_info.value.total == 3

        report = CampaignEngine(executor=CellExecutor(), store=store).run(specs)
        # Only the unfinished cells execute; the stored one is a cache hit.
        assert report.executed == 2
        assert report.cache_hits == 1
        assert all(m is not None for m in report.metrics)

    def test_a_hard_kill_loses_only_the_unfinished_cells(self, tmp_path):
        cache = tmp_path / "cache"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ))
        child = subprocess.run(
            [sys.executable, "-c", HARD_KILL, str(cache)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 9, child.stderr
        store = ResultStore(cache)
        assert store.audit().ok

        specs = small_specs(4)
        report = CampaignEngine(executor=CellExecutor(), store=store).run(specs)
        assert (report.executed, report.cache_hits) == (2, 2)
        assert report.metrics == CampaignEngine().run(specs).metrics

    def test_resumed_quarantine_is_not_reexecuted(self, tmp_path):
        specs = small_specs()
        store = ResultStore(tmp_path / "cache")
        CampaignEngine(
            executor=CellExecutor(retries=0, fn=_fail_seed10_cell),
            store=store, failure_policy="quarantine",
        ).run(specs)
        assert store.get_failure(specs[0])["cause"] == "RuntimeError: doomed cell"

        executed = []

        def must_not_run(spec):
            executed.append(spec)
            return execute_job(spec)

        events = []
        report = CampaignEngine(
            executor=CellExecutor(retries=0, fn=must_not_run),
            store=store, failure_policy="quarantine", progress=events.append,
        ).run(specs)
        assert executed == []  # survivor cached, failure replayed
        assert report.executed == 0
        assert [f.spec for f in report.failed] == [specs[0]]
        assert report.failed[0].replayed
        assert report.metrics[0] is None and report.metrics[1] is not None
        assert report.cache_hits == 1
        assert [e.kind for e in events] == ["quarantined", "cached"]

    @pytest.mark.parametrize("policy", ["skip", "abort"])
    def test_skip_and_abort_retry_a_stored_failure(self, tmp_path, policy):
        specs = small_specs()
        store = ResultStore(tmp_path / "cache")
        CampaignEngine(
            executor=CellExecutor(retries=0, fn=_fail_seed10_cell),
            store=store, failure_policy="quarantine",
        ).run(specs)
        report = CampaignEngine(
            executor=CellExecutor(), store=store, failure_policy=policy,
        ).run(specs)
        assert (report.executed, report.cache_hits) == (1, 1)
        assert report.ok and all(m is not None for m in report.metrics)
        # The healed cell is stored; its post-mortem is now history.
        assert store.get(specs[0]) is not None
        assert len(store.audit().stale_failures) == 1


class TestProgressAccounting:
    def test_denominator_stays_stable_with_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        old = small_specs(1)[0]
        CampaignEngine(executor=CellExecutor(), store=store).run([old])
        new = small_specs(2)[1]

        events = []
        CampaignEngine(
            executor=CellExecutor(), store=store, progress=events.append
        ).run([old, new])
        assert [(e.kind, e.completed, e.total) for e in events] == [
            ("cached", 1, 2), ("start", 1, 2), ("done", 2, 2),
        ]
