"""Resilience primitives: journal, manifest, shutdown plumbing."""

import json
import os
import signal

import pytest

from repro.exec.resilience import (
    CampaignJournal,
    ExecutorInterrupted,
    FailurePolicy,
    JOURNAL_SCHEMA_VERSION,
    JournalState,
    ShutdownFlag,
    graceful_shutdown,
    load_journal,
    manifest_hash,
)

H1 = "a" * 64
H2 = "b" * 64


class TestFailurePolicy:
    def test_coerce_accepts_strings_and_members(self):
        assert FailurePolicy.coerce("quarantine") is FailurePolicy.QUARANTINE
        assert FailurePolicy.coerce("SKIP") is FailurePolicy.SKIP
        assert FailurePolicy.coerce(FailurePolicy.ABORT) is FailurePolicy.ABORT

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="choose from"):
            FailurePolicy.coerce("explode")


class TestManifestHash:
    def test_order_and_duplicates_do_not_matter(self):
        assert manifest_hash([H1, H2]) == manifest_hash([H2, H1, H1])

    def test_different_grids_differ(self):
        assert manifest_hash([H1]) != manifest_hash([H1, H2])


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin("m" * 64, 3)
            journal.record_done(H1, "cell-a")
            journal.record_failed(H2, "RuntimeError: doomed", "cell-b")
            journal.record_interrupted("SIGINT")
        state = load_journal(path)
        assert state.manifest == "m" * 64
        assert state.cells == 3
        assert state.done == {H1}
        assert state.failed == {H2: "RuntimeError: doomed"}
        assert state.interrupted
        assert state.records == 4
        assert state.finished == {H1, H2}

    def test_every_line_is_schema_stamped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin("m" * 64, 1)
            journal.record_done(H1)
        for line in path.read_text().splitlines():
            assert json.loads(line)["schema"] == JOURNAL_SCHEMA_VERSION

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin("m" * 64, 2)
            journal.record_done(H1)
        with path.open("a") as fh:
            fh.write('{"kind": "done", "spec_ha')  # kill -9 mid-append
        state = load_journal(path)
        assert state.done == {H1}
        assert state.records == 2

    def test_later_success_overrides_failure(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_failed(H1, "flaky")
            journal.record_done(H1)
        state = load_journal(path)
        assert state.done == {H1}
        assert state.failed == {}

    def test_appending_across_runs_accumulates(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_done(H1)
        with CampaignJournal(path) as journal:
            journal.record_done(H2)
        assert load_journal(path).done == {H1, H2}

    def test_missing_journal_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read journal"):
            load_journal(tmp_path / "absent.jsonl")

    def test_default_state_is_empty(self):
        state = JournalState()
        assert state.finished == set()
        assert state.manifest is None


class TestShutdown:
    def test_flag_first_reason_wins(self):
        flag = ShutdownFlag()
        assert not flag.is_set()
        flag.set("SIGINT")
        flag.set("SIGTERM")
        assert flag.is_set()
        assert flag.reason == "SIGINT"

    def test_graceful_shutdown_catches_sigint(self):
        flag = ShutdownFlag()
        with graceful_shutdown(flag, signals=(signal.SIGINT,)):
            os.kill(os.getpid(), signal.SIGINT)
            # The handler must set the flag instead of raising
            # KeyboardInterrupt into this frame.
            assert flag.is_set()
            assert flag.reason == "SIGINT"

    def test_previous_handler_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with graceful_shutdown(ShutdownFlag(), signals=(signal.SIGINT,)):
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_executor_interrupted_carries_progress(self):
        exc = ExecutorInterrupted("SIGTERM", completed=4)
        assert exc.reason == "SIGTERM"
        assert exc.completed == 4
