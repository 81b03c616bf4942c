"""Resilience primitives: failure policies and shutdown plumbing."""

import os
import signal

import pytest

from repro.exec.resilience import (
    ExecutorInterrupted,
    FailurePolicy,
    ShutdownFlag,
    graceful_shutdown,
)


class TestFailurePolicy:
    def test_coerce_accepts_strings_and_members(self):
        assert FailurePolicy.coerce("quarantine") is FailurePolicy.QUARANTINE
        assert FailurePolicy.coerce("SKIP") is FailurePolicy.SKIP
        assert FailurePolicy.coerce(FailurePolicy.ABORT) is FailurePolicy.ABORT

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="choose from"):
            FailurePolicy.coerce("explode")


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
