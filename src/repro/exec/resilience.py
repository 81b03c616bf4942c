"""Resilience layer: graceful shutdown.

An interrupted campaign must not re-simulate finished work.  The result
store is the one record of a campaign's progress: every job's artifact is
written atomically the moment it lands, so rerunning the same command with
the cache *is* the resume.  This module holds the shutdown vocabulary
shared by the executor, the engine and the CLI:
:class:`ShutdownFlag` / :func:`graceful_shutdown` give cooperative
SIGINT/SIGTERM handling: the executor drains in-flight cells, each of
which the engine stores as it lands, and the CLI exits with
:data:`EXIT_INTERRUPTED`.

Nothing here imports the executor or the engine — this is the leaf the
rest of ``repro.exec`` builds on.
"""

from __future__ import annotations

import contextlib
import signal
import types
from collections.abc import Iterator
from typing import Any

#: CLI exit code (documented in docs/resilience.md) of a drain-and-flush
#: shutdown (SIGINT/SIGTERM) that ended the run early; rerunning the same
#: command finishes it.
EXIT_INTERRUPTED = 75


class ShutdownFlag:
    """Cooperative cancellation token polled by the executor.

    Signal handlers (or tests, or a progress callback) call :meth:`set`;
    the executor stops dispatching new cells, drains what is in flight and
    raises :class:`ExecutorInterrupted`.
    """

    def __init__(self) -> None:
        self._reason = ""
        self._set = False

    def set(self, reason: str = "") -> None:
        if not self._set:  # first signal wins; later ones keep draining
            self._reason = reason
            self._set = True

    def is_set(self) -> bool:
        return self._set

    @property
    def reason(self) -> str:
        return self._reason


class ExecutorInterrupted(RuntimeError):
    """Raised by the executor after a drain triggered by a :class:`ShutdownFlag`."""

    def __init__(self, reason: str = "", completed: int = 0):
        super().__init__(f"execution interrupted ({reason or 'shutdown'})")
        self.reason = reason
        self.completed = completed


class CampaignInterrupted(RuntimeError):
    """A campaign ended early via graceful shutdown; every job that
    finished is in the store, so a rerun with the cache finishes it."""

    def __init__(self, reason: str = "", completed: int = 0, total: int = 0):
        super().__init__(
            f"campaign interrupted ({reason or 'shutdown'}): "
            f"{completed}/{total} cells finished"
        )
        self.reason = reason
        self.completed = completed
        self.total = total


@contextlib.contextmanager
def graceful_shutdown(
    flag: ShutdownFlag,
    signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[ShutdownFlag]:
    """Install drain-don't-die handlers for *signals* while the body runs.

    The handler only sets *flag*; the executor notices between dispatches,
    finishes in-flight cells, each stored as it lands, and the engine
    raises :class:`CampaignInterrupted`.  Previous handlers are
    restored on exit.  Outside the main thread (where Python forbids
    ``signal.signal``) this degrades to a no-op context.
    """
    previous: dict[int, Any] = {}

    def handler(signum: int, frame: types.FrameType | None) -> None:
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        flag.set(name)

    try:
        for sig in signals:
            previous[sig] = signal.signal(sig, handler)
    except ValueError:  # not the main thread
        previous.clear()
    try:
        yield flag
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
