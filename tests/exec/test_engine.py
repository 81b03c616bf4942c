"""Engine: serial/parallel equivalence, caching, dedup, corruption recovery,
a failed cell and resume."""

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
        assert engine.executor.jobs == 1
        assert engine.store is None and engine.progress is None

    def test_the_same_options_build_the_same_engine(self, driver, tmp_path):
        seen = []
        profiler = SimProfiler()
        flag = ShutdownFlag()
        engine = DRIVERS[driver](
            jobs=2, cache_dir=tmp_path / "cache", cancel=flag,
            progress=seen.append, profiler=profiler,
        ).engine
        assert engine.executor.jobs == 2
        assert engine.store.cache_dir == tmp_path / "cache"
        assert engine.cancel is flag
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


class TestAFailedCell:
    """A cell that still fails after its retries stops the campaign."""

    def test_it_raises_with_its_post_mortem_stored(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = small_specs()
        with pytest.raises(CellExecutionError, match="doomed cell"):
            CampaignEngine(
                executor=CellExecutor(retries=0, fn=_fail_seed10_cell),
                store=store,
            ).run(specs)
        assert store.failure_path_for(specs[0]).exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_cell_is_reported_once(self, jobs):
        events = []
        profiler = SimProfiler()
        engine = CampaignEngine(
            executor=CellExecutor(jobs=jobs, retries=0, fn=_fail_seed10_cell),
            progress=chain_progress(events.append, profiler.record_job),
        )
        with pytest.raises(CellExecutionError):
            engine.run(small_specs(3)[::-1])  # the doomed cell goes last
        kinds = [e.kind for e in events]
        assert kinds.count("failed") == 1 and kinds[-1] == "failed"
        # The campaign-wide counter never runs backwards.
        counts = [e.completed for e in events]
        assert counts == sorted(counts)
        assert all(e.total == 3 for e in events)
        # One span per finished cell and one for the failed cell.
        categories = sorted(span.category for span in profiler.spans)
        assert categories.count("cell-failed") == 1
        assert set(categories) <= {"cell", "cell-failed"}


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

    def test_a_stored_post_mortem_never_stops_a_rerun(self, tmp_path):
        specs = small_specs()[::-1]  # the doomed cell goes last
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(CellExecutionError):
            CampaignEngine(
                executor=CellExecutor(retries=0, fn=_fail_seed10_cell),
                store=store,
            ).run(specs)
        assert store.failure_path_for(specs[-1]).exists()
        report = CampaignEngine(executor=CellExecutor(), store=store).run(specs)
        # Only the failed cell executes; the finished one is served.
        assert (report.executed, report.cache_hits) == (1, 1)
        assert report.metrics == CampaignEngine().run(specs).metrics
        # The healed cell is stored; its post-mortem is now history.
        assert store.get(specs[-1]) is not None
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
