"""Resilience layer: failure policies and graceful shutdown.

The campaign infrastructure promises the same graceful degradation the
paper's NoC gets: one permanently failing cell must never throw away the
rest of a multi-hour sweep, and an interrupted campaign must not
re-simulate finished work.  The result store is the one record of a
campaign's progress: every job's artifact (or its ``quarantine``
post-mortem) is written atomically the moment it lands, so rerunning the
same command with the cache *is* the resume.  This module holds the
policy vocabulary shared by the executor, the engine and the CLI:

* :class:`FailurePolicy` — what a permanently failing cell does to the
  campaign (``abort`` | ``skip`` | ``quarantine``).
* :class:`ShutdownFlag` / :func:`graceful_shutdown` — cooperative
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
from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.exec.spec import Job

#: CLI exit codes (documented in docs/resilience.md).  ``EXIT_PARTIAL``
#: means the campaign finished but quarantined at least one cell;
#: ``EXIT_INTERRUPTED`` means a drain-and-flush shutdown (SIGINT/SIGTERM)
#: ended the run early and rerunning the same command finishes it.
EXIT_OK = 0
EXIT_PARTIAL = 3
EXIT_INTERRUPTED = 75


class FailurePolicy(str, Enum):
    """What a cell that exhausts its retry budget does to the campaign.

    * ``ABORT`` — raise :class:`~repro.exec.executors.CellExecutionError`
      immediately (the historical behavior); finished-but-unreturned work
      survives through the store.
    * ``SKIP`` — drop the cell from the results (its metrics slot is
      ``None``) and keep going; nothing is persisted, so a later run
      retries it from scratch.
    * ``QUARANTINE`` — like ``SKIP``, but the failure is persisted as a
      ``<hash>.failure.json`` post-mortem, so a rerun under ``quarantine``
      reports the cell as quarantined instead of re-executing it.  A rerun
      under ``skip`` or ``abort`` ignores post-mortems and retries the cell.
    """

    ABORT = "abort"
    SKIP = "skip"
    QUARANTINE = "quarantine"

    @classmethod
    def coerce(cls, value: "FailurePolicy | str") -> "FailurePolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            choices = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown failure policy {value!r}; choose from {choices}"
            ) from None


@dataclass(frozen=True)
class CellFailure:
    """Terminal outcome of one job that exhausted its retry budget, or
    whose prerequisite did (then ``attempts`` is 0: it never ran).

    Under the collecting failure modes the executor returns this in the
    failed cell's result slot instead of raising, so surviving cells keep
    their payloads; the engine reports the same record in
    ``CampaignReport.failed`` and ``CampaignEngine.quarantined``.
    """

    spec: Job  # a cell, or the pre-training job its RL cells needed
    cause: str
    traceback_text: str = ""
    attempts: int = 0
    #: True when the verdict was replayed from the store's post-mortem
    #: rather than earned by executing the cell in this run.
    replayed: bool = False


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
