"""The campaign engine: dedupe, cache lookup, execute misses, write back.

The engine is the single entry point every campaign driver uses
(:class:`~repro.core.experiment.ExperimentRunner`, the sensitivity sweeps,
the load-latency harness, the CLI), each through the :class:`EngineOptions`
it inherits.  Given a list of cell specs it

1. deduplicates them by content hash (a grid or bisection often asks for
   the same cell twice),
2. replays a resumed journal so finished (and quarantined) cells of an
   interrupted campaign never re-execute,
3. serves every cell it can from the :class:`~repro.exec.store.ResultStore`,
4. hands only the misses to the executor,
5. persists fresh results back to the store — and into the campaign
   journal — *the moment each cell completes*, so a crash or shutdown
   loses nothing that finished,

and returns :class:`RunMetrics` aligned with the input specs.  The
report's counters (``executed`` vs ``cache_hits`` vs ``resumed``) make
cache and resume behavior testable: a repeated campaign must show zero
executor submissions, and a resumed one only the unfinished cells.

Failure policy (:class:`~repro.exec.resilience.FailurePolicy`) decides
what a permanently failing cell does: ``abort`` raises (historical
behavior), ``skip``/``quarantine`` leave a ``None`` metrics slot and
record the cell in ``CampaignReport.failed`` so downstream consumers
degrade to partial results instead of dying.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exec.executors import (
    CellExecutionError,
    CellExecutor,
    ProgressCallback,
    ProgressEvent,
    _emit,
)
from repro.exec.resilience import (
    CampaignInterrupted,
    CampaignJournal,
    CellFailure,
    ExecutorInterrupted,
    FailurePolicy,
    JournalMismatch,
    JournalState,
    ShutdownFlag,
    load_journal,
    manifest_hash,
)
from repro.exec.spec import CellSpec
from repro.exec.store import ResultStore
from repro.metrics.summary import RunMetrics
from repro.telemetry import PhaseProfiler, cell_span_recorder, chain_progress

_LOG = logging.getLogger("repro")


@dataclass
class CampaignReport:
    """Outcome of one engine invocation.

    ``metrics`` is aligned with ``specs``; under the non-aborting failure
    policies a failed cell's slot is ``None`` and the cell appears in
    ``failed``.
    """

    specs: list[CellSpec]
    metrics: list[RunMetrics | None]
    executed: int = 0  # cells handed to the executor
    cache_hits: int = 0  # cells served from the result store
    deduplicated: int = 0  # duplicate specs folded into one execution
    resumed: int = 0  # cache hits that were journaled by an earlier run
    failed: list[CellFailure] = field(default_factory=list)
    manifest: str = ""  # campaign identity (journal manifest hash)

    @property
    def ok(self) -> bool:
        return not self.failed


@dataclass
class CampaignEngine:
    """Executor + optional store, reusable across campaign invocations."""

    executor: CellExecutor = field(default_factory=CellExecutor)
    store: ResultStore | None = None
    progress: ProgressCallback | None = None
    failure_policy: FailurePolicy | str = FailurePolicy.ABORT
    #: Append-only crash-safe record of this campaign's progress.
    journal: CampaignJournal | None = None
    #: Parsed journal of an interrupted earlier run to replay.
    resume: JournalState | None = None
    #: Cooperative shutdown token (set by graceful_shutdown's handlers).
    cancel: ShutdownFlag | None = None
    # Running totals across invocations (useful for sweeps that call run()
    # once per point).
    total_executed: int = 0
    total_cache_hits: int = 0
    #: Every cell quarantined or skipped across invocations.
    quarantined: list[CellFailure] = field(default_factory=list)

    def run(self, specs: Sequence[CellSpec]) -> CampaignReport:
        policy = FailurePolicy.coerce(self.failure_policy)
        specs = list(specs)
        report = CampaignReport(specs=specs, metrics=[])

        # Dedupe by content hash; first occurrence owns the execution.
        order: list[str] = []
        unique: dict[str, CellSpec] = {}
        for spec in specs:
            h = spec.content_hash()
            order.append(h)
            if h in unique:
                report.deduplicated += 1
            else:
                unique[h] = spec

        report.manifest = manifest_hash(unique)
        resume = self._validated_resume(report.manifest)
        if self.journal is not None:
            self.journal.begin(report.manifest, len(unique))

        payloads: dict[str, dict[str, Any]] = {}
        misses: list[tuple[str, CellSpec]] = []
        for h, spec in unique.items():
            if h in resume.failed:
                self._quarantine_from_journal(
                    policy, spec, resume.failed[h], report,
                    len(payloads), len(unique),
                )
                continue
            cached = self.store.get(spec) if self.store is not None else None
            if cached is not None:
                payloads[h] = cached
                report.cache_hits += 1
                if h in resume.done:
                    report.resumed += 1
                _emit(self.progress, ProgressEvent(
                    "resumed" if h in resume.done else "cached",
                    spec, len(payloads), len(unique),
                ))
            else:
                if h in resume.done:
                    _LOG.warning(
                        "journal marks %s done but the store has no artifact; "
                        "re-executing", spec.label,
                    )
                misses.append((h, spec))

        if misses:
            self._execute_misses(policy, misses, payloads, report, len(unique))
            report.executed = len(misses)

        self.total_executed += report.executed
        self.total_cache_hits += report.cache_hits
        # Round-trip through the artifact schema on every path (serial,
        # parallel, cached), so results are representation-identical no
        # matter how a cell was obtained.
        decoded = {h: RunMetrics.from_dict(p["metrics"]) for h, p in payloads.items()}
        report.metrics = [decoded.get(h) for h in order]
        return report

    # --- resume ---------------------------------------------------------------

    def _validated_resume(self, manifest: str) -> JournalState:
        if self.resume is None:
            return JournalState()
        if self.resume.manifest is not None and self.resume.manifest != manifest:
            raise JournalMismatch(
                "the resume journal belongs to a different campaign "
                f"(manifest {self.resume.manifest[:12]}… != {manifest[:12]}…)"
            )
        return self.resume

    def _quarantine_from_journal(
        self,
        policy: FailurePolicy,
        spec: CellSpec,
        cause: str,
        report: CampaignReport,
        completed: int,
        total: int,
    ) -> None:
        """A journaled permanent failure: report it without re-executing."""
        if policy is FailurePolicy.ABORT:
            raise CellExecutionError(spec, f"quarantined by resumed journal: {cause}")
        cell = CellFailure(spec, cause, from_journal=True)
        report.failed.append(cell)
        self.quarantined.append(cell)
        _emit(self.progress, ProgressEvent(
            "quarantined", spec, completed, total, error=cause,
        ))

    # --- execution ------------------------------------------------------------

    def _execute_misses(
        self,
        policy: FailurePolicy,
        misses: list[tuple[str, CellSpec]],
        payloads: dict[str, dict[str, Any]],
        report: CampaignReport,
        total: int,
    ) -> None:
        miss_hashes = [h for h, _ in misses]

        def on_result(index: int, spec: CellSpec, payload: dict[str, Any]) -> None:
            # Persist the instant a cell lands: crash-safety of the journal
            # depends on never holding finished work only in memory.
            self._store_put(spec, payload)
            if self.journal is not None:
                self.journal.record_done(miss_hashes[index], spec.label)
            payloads[miss_hashes[index]] = payload

        def on_failure(index: int, spec: CellSpec, failure: CellFailure) -> None:
            # The executor already reported the cell ``failed``.
            report.failed.append(failure)
            self.quarantined.append(failure)
            if policy is not FailurePolicy.QUARANTINE:
                return
            self._store_put_failure(spec, failure)
            if self.journal is not None:
                self.journal.record_failed(
                    miss_hashes[index], failure.cause, spec.label
                )
            # ``payloads`` holds the cache hits plus every cell landed so
            # far: the executor's own running count.
            _emit(self.progress, ProgressEvent(
                "quarantined", spec, len(payloads), total, error=failure.cause,
            ))

        try:
            self.executor.run(
                [s for _, s in misses],
                self.progress,
                failure_mode=(
                    "raise" if policy is FailurePolicy.ABORT else "collect"
                ),
                cancel=self.cancel,
                completed_offset=report.cache_hits,
                campaign_total=total,
                on_result=on_result,
                on_failure=on_failure,
            )
        except CellExecutionError as exc:
            # Persist the post-mortem (cause + full traceback) into the
            # cell's failure artifact before surfacing the error.
            if self.store is not None:
                self.store.put_failure(exc.spec, exc.cause, exc.traceback_text)
            if self.journal is not None:
                self.journal.record_failed(
                    exc.spec.content_hash(), exc.cause, exc.spec.label
                )
                self.journal.sync()
            raise
        except ExecutorInterrupted as exc:
            if self.journal is not None:
                self.journal.record_interrupted(exc.reason)
                self.journal.sync()
            raise CampaignInterrupted(
                exc.reason,
                completed=report.cache_hits + exc.completed,
                total=total,
                journal_path=(
                    self.journal.path if self.journal is not None else None
                ),
            ) from exc

    # --- guarded persistence --------------------------------------------------

    def _store_put(self, spec: CellSpec, payload: dict[str, Any]) -> None:
        """Cache writes must never kill a campaign (ENOSPC et al. degrade
        to a warning: the result still reaches the report, only the cache
        misses out)."""
        if self.store is None:
            return
        try:
            self.store.put(spec, payload)
        except OSError as exc:
            _LOG.warning("result-cache write failed for %s: %s", spec.label, exc)

    def _store_put_failure(self, spec: CellSpec, failure: CellFailure) -> None:
        if self.store is None:
            return
        try:
            self.store.put_failure(spec, failure.cause, failure.traceback_text)
        except OSError as exc:
            _LOG.warning("failure-artifact write failed for %s: %s",
                         spec.label, exc)


@dataclass(kw_only=True)
class EngineOptions:
    """The engine options every campaign driver takes, and the one recipe
    that turns them into a :class:`CampaignEngine`.

    :class:`~repro.core.experiment.ExperimentRunner`,
    :class:`~repro.core.sweep.SensitivitySweep` and
    :class:`~repro.core.loadlatency.LoadLatencySweep` inherit this, so the
    same options build the same executor, store, journal and progress
    chain whichever driver holds them.  ``jobs > 1`` executes cells in
    worker processes; ``use_cache=True`` (or an explicit ``cache_dir``)
    persists every cell result so repeated runs are pure cache reads.
    Results are bit-identical across all of these modes: every cell is a
    pure function of its spec.
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    use_cache: bool = False
    timeout_s: float | None = None
    #: What a permanently failing cell does: abort (raise), skip, quarantine.
    failure_policy: FailurePolicy | str = FailurePolicy.ABORT
    #: Crash-safe campaign journal location (enables resume after a crash).
    journal_path: str | Path | None = None
    #: Journal of an interrupted earlier run to replay before executing;
    #: journaling continues to it unless ``journal_path`` says otherwise.
    resume_from: str | Path | None = None
    #: Cooperative shutdown token (see repro.exec.resilience.graceful_shutdown).
    cancel: ShutdownFlag | None = None
    progress: ProgressCallback | None = None
    #: Optional phase profiler: every engine run becomes a phase and every
    #: finished cell a span, exportable as Chrome trace-event JSON.
    profiler: PhaseProfiler | None = None
    _engine: CampaignEngine | None = field(default=None, init=False, repr=False)

    @property
    def engine(self) -> CampaignEngine:
        """The driver's engine, built on first use."""
        if self._engine is None:
            journal_path = (
                self.journal_path
                if self.journal_path is not None
                else self.resume_from
            )
            store = (
                ResultStore(self.cache_dir)
                if self.use_cache or self.cache_dir is not None
                else None
            )
            if self.resume_from is not None and store is None:
                raise ValueError(
                    "resuming needs the result cache: the journal records "
                    "which cells finished, the store holds what they produced"
                )
            self._engine = CampaignEngine(
                executor=CellExecutor(jobs=self.jobs, timeout_s=self.timeout_s),
                store=store,
                progress=chain_progress(
                    self.progress,
                    cell_span_recorder(self.profiler)
                    if self.profiler is not None
                    else None,
                ),
                failure_policy=self.failure_policy,
                journal=(
                    CampaignJournal(journal_path)
                    if journal_path is not None
                    else None
                ),
                resume=(
                    load_journal(self.resume_from)
                    if self.resume_from is not None
                    else None
                ),
                cancel=self.cancel,
            )
        return self._engine

    def run_specs(
        self,
        specs: Sequence[CellSpec],
        phase: str = "engine.run",
        count: str = "cells",
    ) -> CampaignReport:
        """Run *specs* through the engine — when profiled, as a *phase*
        whose *count* attribute is the number of cells."""
        if self.profiler is None:
            return self.engine.run(specs)
        with self.profiler.phase(phase, **{count: len(specs)}):
            return self.engine.run(specs)
