"""Chaos drills: drive every recovery path in the exec layer under
deterministic, seeded fault injection.

Each drill wires a ``ChaosPolicy`` into the executor's cell function
(``ChaosCellFn``, ``harness.py`` beside this file) and asserts the
campaign machinery recovers exactly as documented in docs/resilience.md:
crashes and transient errors leave the metrics bit-identical to a
chaos-free run, a doomed cell stops the campaign with its post-mortem
stored, a killed or stopped campaign rerun on the same store re-simulates
none of its finished cells, and a broken process pool is rebuilt.

The ``max_faults_per_cell=1`` cap plus the pre-fault on-disk ledger make
every non-doomed cell survivable by construction, so these drills are
deterministic despite injecting crashes.
"""

import os
import signal

import pytest

from repro.config import SECDED_BASELINE
from repro.exec.engine import CampaignEngine
from repro.exec.executors import CellExecutionError, CellExecutor
from repro.exec.resilience import (
    CampaignInterrupted,
    ShutdownFlag,
    graceful_shutdown,
)
from repro.exec.spec import parsec_cell
from repro.exec.store import ResultStore
from tests.exec.chaos.harness import ChaosCellFn, ChaosError, ChaosPolicy


def drill_specs(n=4, duration=400):
    return [
        parsec_cell(SECDED_BASELINE, "swa", duration, seed=30 + i)
        for i in range(n)
    ]


class TestChaosPolicy:
    def test_decisions_are_deterministic(self, tmp_path):
        a = ChaosPolicy(state_dir=str(tmp_path / "a"), seed=3, crash_rate=0.5)
        b = ChaosPolicy(state_dir=str(tmp_path / "b"), seed=3, crash_rate=0.5)
        h = "c" * 64
        assert a.pick_fault(h, 1) == b.pick_fault(h, 1)
        assert a.uniform("fault", h, 1) == b.uniform("fault", h, 1)

    def test_ledger_caps_the_fault_budget(self, tmp_path):
        policy = ChaosPolicy(
            state_dir=str(tmp_path), seed=0, transient_rate=1.0
        )
        h = "d" * 64
        attempt, budget_left = policy.next_attempt(h)
        assert (attempt, budget_left) == (1, True)
        policy.charge_fault(h)
        attempt, budget_left = policy.next_attempt(h)
        assert (attempt, budget_left) == (2, False)

    def test_doomed_cell_fails_every_attempt(self, tmp_path):
        spec = drill_specs(1)[0]
        policy = ChaosPolicy(
            state_dir=str(tmp_path), doomed=(spec.content_hash(),)
        )
        fn = ChaosCellFn(policy)
        for _ in range(3):
            with pytest.raises(ChaosError, match="doomed"):
                fn(spec)


class TestChaosEndToEnd:
    def test_crashes_and_transients_leave_the_metrics_bit_identical(
        self, tmp_path
    ):
        """The acceptance drill: crashes and transient errors under a
        parallel campaign with no doomed cell.  The campaign completes,
        and its metrics are bit-identical to a chaos-free run."""
        specs = drill_specs(4)
        policy = ChaosPolicy(
            state_dir=str(tmp_path / "chaos"),
            seed=5,
            crash_rate=0.35,
            transient_rate=0.35,
        )
        store = ResultStore(tmp_path / "cache")
        # Generous retry budget: each cell injects at most one fault, but a
        # pool break also charges the innocent in-flight cells one attempt.
        report = CampaignEngine(
            executor=CellExecutor(jobs=2, retries=5, fn=ChaosCellFn(policy)),
            store=store,
        ).run(specs)
        assert report.executed == 4
        assert report.metrics == CampaignEngine().run(specs).metrics
        assert all(store.get(s) is not None for s in specs)

    def test_a_doomed_cell_stops_the_campaign_and_a_rerun_finishes_it(
        self, tmp_path
    ):
        """Under the same chaos one doomed cell raises, with its post-mortem
        stored; a chaos-free rerun on the same store executes only the jobs
        that had not finished, and its results equal a clean run's."""
        specs = drill_specs(4)
        doomed = specs[2]
        policy = ChaosPolicy(
            state_dir=str(tmp_path / "chaos"),
            seed=5,
            crash_rate=0.35,
            transient_rate=0.35,
            doomed=(doomed.content_hash(),),
        )
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(CellExecutionError) as raised:
            CampaignEngine(
                executor=CellExecutor(jobs=2, retries=5, fn=ChaosCellFn(policy)),
                store=store,
            ).run(specs)
        # The doomed cell is the one that ran out, whatever its last charged
        # attempt was: its own ChaosError, or a pool break another cell's
        # crash caused ("worker process crashed").  Every cell is labelled
        # SECDED/swa, so the message cannot tell them apart.
        assert raised.value.spec.content_hash() == doomed.content_hash()
        assert store.failure_path_for(doomed).exists()
        assert store.get(doomed) is None
        finished = sum(store.get(s) is not None for s in specs)

        report = CampaignEngine(store=store).run(specs)
        assert (report.executed, report.cache_hits) == (4 - finished, finished)
        assert report.metrics == CampaignEngine().run(specs).metrics

    def test_kill_mid_flight_then_resume_runs_only_the_remainder(
        self, tmp_path
    ):
        """SIGTERM lands after two cells finish; a second engine on the same
        store serves those two and executes only the unfinished cells."""
        specs = drill_specs(4)
        policy = ChaosPolicy(
            state_dir=str(tmp_path / "chaos"), seed=9, transient_rate=1.0
        )
        store = ResultStore(tmp_path / "cache")
        flag = ShutdownFlag()
        done = []

        def sigterm_after_two(event):
            if event.kind == "done":
                done.append(event.spec)
                if len(done) == 2:
                    os.kill(os.getpid(), signal.SIGTERM)

        engine = CampaignEngine(
            executor=CellExecutor(retries=1, fn=ChaosCellFn(policy)),
            store=store,
            cancel=flag,
            progress=sigterm_after_two,
        )
        with graceful_shutdown(flag, signals=(signal.SIGTERM,)):
            with pytest.raises(CampaignInterrupted) as exc_info:
                engine.run(specs)
        assert exc_info.value.completed == 2
        assert exc_info.value.total == 4
        assert sum(store.get(s) is not None for s in specs) == 2

        resumed = CampaignEngine(
            executor=CellExecutor(retries=1, fn=ChaosCellFn(policy)),
            store=store,
        )
        report = resumed.run(specs)
        # Zero re-simulation of the finished cells.
        assert report.executed == 2
        assert report.cache_hits == 2
        # Bit-identical to a chaos-free run.
        assert report.metrics == CampaignEngine().run(specs).metrics


class TestProcessPoolChaos:
    def test_broken_pool_is_rebuilt_and_the_campaign_completes(
        self, tmp_path
    ):
        """Every cell hard-crashes its worker once (``os._exit``); the
        executor must rebuild the pool and the retries must land clean."""
        specs = drill_specs(3)
        policy = ChaosPolicy(
            state_dir=str(tmp_path / "chaos"), seed=2, crash_rate=1.0
        )
        # Three retries keep the drill deterministic: each cell crashes at
        # most once, and each crash also charges the innocent in-flight cell
        # a collateral attempt when the pool breaks.
        report = CampaignEngine(
            executor=CellExecutor(jobs=2, retries=3, fn=ChaosCellFn(policy))
        ).run(specs)
        assert report.executed == 3
        assert all(m is not None for m in report.metrics)
