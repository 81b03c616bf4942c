"""Chaos drills: drive every recovery path in the exec layer under
deterministic, seeded fault injection.

Each drill wires a ``ChaosPolicy`` into the executor's cell function
(``ChaosCellFn``, ``harness.py`` beside this file) and asserts the
campaign machinery recovers exactly as documented in docs/resilience.md:
quarantine isolates only the doomed cell, survivors stay bit-identical to
a chaos-free run, a killed campaign resumes with zero re-simulation of
finished cells, and a broken process pool is rebuilt.

The ``max_faults_per_cell=1`` cap plus the pre-fault on-disk ledger make
every non-doomed cell survivable by construction, so these drills are
deterministic despite injecting crashes and hangs.
"""

import os
import signal

import pytest

from repro.config import SECDED_BASELINE
from repro.exec.engine import CampaignEngine
from repro.exec.executors import CellExecutor
from repro.exec.resilience import (
    CampaignInterrupted,
    CampaignJournal,
    ShutdownFlag,
    graceful_shutdown,
    load_journal,
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
    def test_quarantine_campaign_survives_mixed_chaos(self, tmp_path):
        """The acceptance drill: crashes and transients under a parallel
        quarantine campaign.  Exactly the doomed cell is quarantined (with
        a persisted post-mortem) and every survivor's metrics are
        bit-identical to a chaos-free run."""
        specs = drill_specs(4)
        doomed = specs[0]
        policy = ChaosPolicy(
            state_dir=str(tmp_path / "chaos"),
            seed=5,
            crash_rate=0.35,
            transient_rate=0.35,
            doomed=(doomed.content_hash(),),
        )
        store = ResultStore(tmp_path / "cache")
        journal = CampaignJournal(tmp_path / "campaign.journal.jsonl")
        # Generous retry budget: each cell injects at most one fault, but a
        # pool break also charges the innocent in-flight cells one attempt.
        engine = CampaignEngine(
            executor=CellExecutor(jobs=2, retries=5, fn=ChaosCellFn(policy)),
            store=store,
            failure_policy="quarantine",
            journal=journal,
        )
        report = engine.run(specs)
        journal.close()

        assert report.executed == 4
        assert [f.spec for f in report.failed] == [doomed]
        assert report.metrics[0] is None
        assert all(m is not None for m in report.metrics[1:])
        assert store.failure_path_for(doomed).exists()

        clean = CampaignEngine(executor=CellExecutor()).run(specs)
        assert report.metrics[1:] == clean.metrics[1:]

        state = load_journal(tmp_path / "campaign.journal.jsonl")
        assert state.done == {s.content_hash() for s in specs[1:]}
        assert set(state.failed) == {doomed.content_hash()}

    def test_kill_mid_flight_then_resume_runs_only_the_remainder(
        self, tmp_path
    ):
        """SIGTERM lands after two cells finish; ``--resume`` semantics
        replay the journal so only the unfinished cells re-execute."""
        specs = drill_specs(4)
        policy = ChaosPolicy(
            state_dir=str(tmp_path / "chaos"), seed=9, transient_rate=1.0
        )
        store = ResultStore(tmp_path / "cache")
        path = tmp_path / "campaign.journal.jsonl"
        flag = ShutdownFlag()
        done = []

        def sigterm_after_two(event):
            if event.kind == "done":
                done.append(event.spec)
                if len(done) == 2:
                    os.kill(os.getpid(), signal.SIGTERM)

        journal = CampaignJournal(path)
        engine = CampaignEngine(
            executor=CellExecutor(retries=1, fn=ChaosCellFn(policy)),
            store=store,
            journal=journal,
            cancel=flag,
            progress=sigterm_after_two,
        )
        with graceful_shutdown(flag, signals=(signal.SIGTERM,)):
            with pytest.raises(CampaignInterrupted) as exc_info:
                engine.run(specs)
        journal.close()
        assert exc_info.value.completed == 2
        assert exc_info.value.total == 4
        assert exc_info.value.journal_path == path

        state = load_journal(path)
        assert len(state.done) == 2
        assert state.interrupted

        resumed = CampaignEngine(
            executor=CellExecutor(retries=1, fn=ChaosCellFn(policy)),
            store=store,
            journal=CampaignJournal(path),
            resume=state,
        )
        report = resumed.run(specs)
        # Zero re-simulation of the finished cells.
        assert report.executed == 2
        assert report.cache_hits == 2
        assert all(m is not None for m in report.metrics)


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

    def test_hang_is_abandoned_by_timeout_and_retried(self, tmp_path):
        """A hung attempt trips ``timeout_s``; the executor abandons the
        still-running future and the retry (fault budget spent) lands."""
        spec = drill_specs(1)[0]
        policy = ChaosPolicy(
            state_dir=str(tmp_path / "chaos"),
            seed=0,
            hang_rate=1.0,
            hang_s=1.5,
        )
        report = CampaignEngine(
            executor=CellExecutor(
                jobs=2, timeout_s=0.6, retries=1, fn=ChaosCellFn(policy)
            )
        ).run([spec])
        assert report.executed == 1
        assert report.metrics[0] is not None

    def test_serial_hang_degrades_to_a_slow_failed_attempt(self, tmp_path):
        """An in-process attempt cannot be pre-empted (documented
        limitation): the hang blocks for ``hang_s``, surfaces as a failed
        attempt, and the retry recovers."""
        spec = drill_specs(1)[0]
        policy = ChaosPolicy(
            state_dir=str(tmp_path / "chaos"),
            seed=0,
            hang_rate=1.0,
            hang_s=0.3,
        )
        events = []
        report = CampaignEngine(
            executor=CellExecutor(retries=1, fn=ChaosCellFn(policy)),
            progress=events.append,
        ).run([spec])
        assert report.metrics[0] is not None
        assert any(
            e.kind == "retry" and "hung" in e.error for e in events
        )
