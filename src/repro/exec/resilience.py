"""Resilience layer: failure policies, journal, shutdown.

The campaign infrastructure promises the same graceful degradation the
paper's NoC gets: one permanently failing cell must never throw away the
rest of a multi-hour sweep, and an interrupted campaign must resume from
durable state instead of re-simulating finished work.  This module holds
the policy vocabulary shared by the executor, the engine and the CLI:

* :class:`FailurePolicy` — what a permanently failing cell does to the
  campaign (``abort`` | ``skip`` | ``quarantine``).
* :class:`CampaignJournal` / :func:`load_journal` — a crash-safe,
  append-only JSONL record of cell completions and failures, keyed by
  spec content hash under a campaign-level manifest hash; the substrate
  of ``--resume``.
* :class:`ShutdownFlag` / :func:`graceful_shutdown` — cooperative
  SIGINT/SIGTERM handling: the executor drains in-flight cells, the engine
  flushes the journal and store, and the CLI exits with
  :data:`EXIT_INTERRUPTED`.

Nothing here imports the executor or the engine — this is the leaf the
rest of ``repro.exec`` builds on.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import types
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Any

from repro.exec.spec import Job

#: Journal line schema; bump on incompatible record-layout changes.
JOURNAL_SCHEMA_VERSION = 1

#: Default journal filename, placed next to the result store's artifacts.
JOURNAL_NAME = "campaign.journal.jsonl"

#: CLI exit codes (documented in docs/resilience.md).  ``EXIT_PARTIAL``
#: means the campaign finished but quarantined at least one cell;
#: ``EXIT_INTERRUPTED`` means a drain-and-flush shutdown (SIGINT/SIGTERM)
#: ended the run early and ``--resume`` can finish it.
EXIT_OK = 0
EXIT_PARTIAL = 3
EXIT_INTERRUPTED = 75


class FailurePolicy(str, Enum):
    """What a cell that exhausts its retry budget does to the campaign.

    * ``ABORT`` — raise :class:`~repro.exec.executors.CellExecutionError`
      immediately (the historical behavior); finished-but-unreturned work
      survives only through the store and journal.
    * ``SKIP`` — drop the cell from the results (its metrics slot is
      ``None``) and keep going; nothing is persisted, so a later run
      retries it from scratch.
    * ``QUARANTINE`` — like ``SKIP``, but the failure is persisted as a
      ``<hash>.failure.json`` post-mortem and journaled, so a resumed run
      reports the cell as quarantined instead of re-executing it.
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
    #: True when the verdict was replayed from a resumed journal rather
    #: than earned by executing the cell in this run.
    from_journal: bool = False


def manifest_hash(spec_hashes: Iterable[str]) -> str:
    """Campaign identity: sha256 over the sorted unique cell hashes.

    Order-insensitive so the same grid enumerated differently still
    resumes; duplicate specs fold into one entry, mirroring the engine's
    dedupe.
    """
    joined = "\n".join(sorted(set(spec_hashes)))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


class JournalMismatch(ValueError):
    """``--resume`` pointed at a journal written by a different campaign."""


@dataclass
class JournalState:
    """Parsed view of a campaign journal, ready for replay."""

    manifest: str | None = None
    cells: int = 0
    done: set[str] = field(default_factory=set)
    failed: dict[str, str] = field(default_factory=dict)  # hash -> cause
    interrupted: bool = False
    records: int = 0

    @property
    def finished(self) -> set[str]:
        """Hashes needing no re-execution: completed plus quarantined."""
        return self.done | set(self.failed)


def load_journal(path: str | Path) -> JournalState:
    """Read a journal back, tolerating a torn final line.

    A campaign killed mid-write leaves at most one truncated record at the
    tail; anything unparsable is skipped (counted nowhere) rather than
    failing the resume — the corresponding cell simply re-executes.
    """
    state = JournalState()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read journal {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail record from a crash mid-append
        if not isinstance(record, dict):
            continue
        if record.get("schema") != JOURNAL_SCHEMA_VERSION:
            continue
        kind = record.get("kind")
        if kind == "begin":
            state.manifest = str(record.get("manifest", "")) or None
            state.cells = int(record.get("cells", 0))
        elif kind == "done":
            h = str(record.get("spec_hash", ""))
            if h:
                state.done.add(h)
                state.failed.pop(h, None)  # a later success wins
        elif kind == "failed":
            h = str(record.get("spec_hash", ""))
            if h and h not in state.done:
                state.failed[h] = str(record.get("cause", ""))
        elif kind == "interrupted":
            state.interrupted = True
        state.records += 1
    return state


class CampaignJournal:
    """Crash-safe append-only JSONL record of campaign progress.

    One line per event, flushed on every append, so a ``kill -9`` loses at
    most the record being written (and :func:`load_journal` tolerates that
    torn line).  The journal never stores payloads — the result store owns
    those; replaying a journal answers *which* cells finished, the store
    answers *what* they produced.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = None
        self.records_written = 0

    def _append(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        record["schema"] = JOURNAL_SCHEMA_VERSION
        self._fh.write(json.dumps(record, sort_keys=True))
        self._fh.write("\n")
        self._fh.flush()
        self.records_written += 1

    def begin(self, manifest: str, cells: int) -> None:
        self._append({"kind": "begin", "manifest": manifest, "cells": cells})

    def record_done(self, spec_hash: str, label: str = "") -> None:
        self._append({"kind": "done", "spec_hash": spec_hash, "label": label})

    def record_failed(
        self, spec_hash: str, cause: str, label: str = ""
    ) -> None:
        self._append({
            "kind": "failed", "spec_hash": spec_hash,
            "cause": cause, "label": label,
        })

    def record_interrupted(self, reason: str = "") -> None:
        self._append({"kind": "interrupted", "reason": reason})

    def sync(self) -> None:
        """Flush and fsync — called when draining a shutdown."""
        if self._fh is not None:
            self._fh.flush()
            with contextlib.suppress(OSError):
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self.sync()
            self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


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
    """A campaign ended early via graceful shutdown; resume can finish it."""

    def __init__(
        self,
        reason: str = "",
        completed: int = 0,
        total: int = 0,
        journal_path: Path | None = None,
    ):
        detail = f"{completed}/{total} cells finished"
        if journal_path is not None:
            detail += f"; resume from {journal_path}"
        super().__init__(f"campaign interrupted ({reason or 'shutdown'}): {detail}")
        self.reason = reason
        self.completed = completed
        self.total = total
        self.journal_path = journal_path


@contextlib.contextmanager
def graceful_shutdown(
    flag: ShutdownFlag,
    signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[ShutdownFlag]:
    """Install drain-don't-die handlers for *signals* while the body runs.

    The handler only sets *flag*; the executor notices between dispatches,
    finishes in-flight cells, and the engine flushes journal and store
    before raising :class:`CampaignInterrupted`.  Previous handlers are
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
