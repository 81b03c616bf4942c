"""The campaign engine: dedupe, cache lookup, execute misses, write back.

The engine is the single entry point every campaign driver uses
(:class:`~repro.core.experiment.ExperimentRunner`, the paper evaluator,
the load-latency harness, the CLI), each through the :class:`EngineOptions`
it inherits.  Given a list of cell specs it

1. deduplicates them by content hash (a grid or bisection often asks for
   the same cell twice),
2. serves every cell it can from the :class:`~repro.exec.store.ResultStore`
   and, under the ``quarantine`` policy, reports every cell with a stored
   post-mortem as quarantined without executing it,
3. finds the pre-training jobs the RL misses deploy and serves their
   policy artefacts from the store too,
4. hands only the misses to the executor — the pre-training jobs left,
   and the cells, each RL cell dispatched once its policy is in hand,
5. persists fresh results, policies and post-mortems back to the store
   *the moment each job completes*, so a crash or shutdown loses nothing
   that finished,

and returns :class:`RunMetrics` aligned with the input specs.  The store
is the one record of a campaign's progress: rerunning an interrupted
campaign on the same store executes only what did not finish.  The
report's counters (``executed`` vs ``cache_hits``, and ``pretrained``)
make that testable: a repeated campaign must show zero executor
submissions, and a rerun of an interrupted one only the unfinished jobs.
Without a store a policy lives only as long as ``run``.

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
    CellFailure,
    ExecutorInterrupted,
    FailurePolicy,
    ShutdownFlag,
)
from repro.exec.spec import CellSpec, Job, PretrainSpec
from repro.exec.store import ResultStore
from repro.metrics.summary import RunMetrics
from repro.telemetry import SimProfiler, chain_progress

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
    pretrained: int = 0  # pre-training jobs handed to the executor
    cache_hits: int = 0  # cells served from the result store
    deduplicated: int = 0  # duplicate specs folded into one execution
    failed: list[CellFailure] = field(default_factory=list)

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

        store = self.store
        payloads: dict[str, dict[str, Any]] = {}
        # Post-mortems a quarantine rerun reports instead of executing.
        replays: dict[str, dict[str, Any]] = {}
        misses: list[tuple[str, CellSpec]] = []
        for h, spec in unique.items():
            cached = store.get(spec) if store is not None else None
            if cached is not None:
                payloads[h] = cached
                continue
            stored = (
                store.get_failure(spec)
                if store is not None and policy is FailurePolicy.QUARANTINE
                else None
            )
            if stored is not None:
                replays[h] = stored
            else:
                misses.append((h, spec))
        # The pre-training jobs the misses deploy, by hash (each miss's
        # ``need``): each policy served from the store is held for this run
        # only.
        trainings: dict[str, PretrainSpec] = {}
        needs: list[str | None] = []
        for _, spec in misses:
            job = spec.pretraining
            need: str | None = None
            if job is not None:
                need = job.content_hash()
                trainings.setdefault(need, job)
            needs.append(need)
        policies: dict[str, dict[str, Any]] = {}
        for h, job in trainings.items():
            policy_artefact = store.get(job) if store is not None else None
            if policy_artefact is not None:
                policies[h] = policy_artefact

        total = len(unique) + len(trainings)
        served = 0
        for h, spec in unique.items():
            if h in payloads:
                served += 1
                report.cache_hits += 1
                self._served(spec, served, total)
            elif h in replays:
                self._replay(spec, replays[h], report, served, total)
        for h in policies:
            served += 1
            self._served(trainings[h], served, total)

        batch: list[tuple[str, Job, str | None]] = [
            (h, job, None) for h, job in trainings.items() if h not in policies
        ]
        batch += [(h, spec, need) for (h, spec), need in zip(misses, needs)]
        if batch:
            self._execute(policy, batch, policies, payloads, report, served, total)
            report.executed = len(misses)
            report.pretrained = len(batch) - len(misses)

        self.total_executed += report.executed
        self.total_cache_hits += report.cache_hits
        # Round-trip through the artifact schema on every path (serial,
        # parallel, cached), so results are representation-identical no
        # matter how a cell was obtained.
        decoded = {h: RunMetrics.from_dict(p["metrics"]) for h, p in payloads.items()}
        report.metrics = [decoded.get(h) for h in order]
        return report

    def _served(self, spec: Job, completed: int, total: int) -> None:
        _emit(self.progress, ProgressEvent("cached", spec, completed, total))

    def _replay(
        self,
        spec: Job,
        stored: dict[str, Any],
        report: CampaignReport,
        completed: int,
        total: int,
    ) -> None:
        """A stored post-mortem: report it without re-executing."""
        cell = CellFailure(
            spec, stored["cause"], str(stored.get("traceback", "")),
            replayed=True,
        )
        report.failed.append(cell)
        self.quarantined.append(cell)
        _emit(self.progress, ProgressEvent(
            "quarantined", spec, completed, total, error=cell.cause,
        ))

    # --- execution ------------------------------------------------------------

    def _execute(
        self,
        policy: FailurePolicy,
        batch: list[tuple[str, Job, str | None]],
        policies: dict[str, dict[str, Any]],
        payloads: dict[str, dict[str, Any]],
        report: CampaignReport,
        served: int,
        total: int,
    ) -> None:
        landed = served  # jobs finished so far, campaign-wide

        def on_result(index: int, spec: Job, payload: dict[str, Any]) -> None:
            # Persist the instant a job lands: a rerun resumes from the
            # store, so finished work is never held only in memory.
            nonlocal landed
            landed += 1
            self._store_put(spec, payload)
            if isinstance(spec, CellSpec):
                payloads[batch[index][0]] = payload

        def on_failure(index: int, spec: Job, failure: CellFailure) -> None:
            # The executor already reported the job ``failed``.
            report.failed.append(failure)
            self.quarantined.append(failure)
            if policy is not FailurePolicy.QUARANTINE:
                return
            self._store_put_failure(spec, failure.cause, failure.traceback_text)
            _emit(self.progress, ProgressEvent(
                "quarantined", spec, landed, total, error=failure.cause,
            ))

        try:
            self.executor.run(
                [job for _, job, _ in batch],
                self.progress,
                failure_mode=(
                    "raise" if policy is FailurePolicy.ABORT else "collect"
                ),
                cancel=self.cancel,
                completed_offset=served,
                campaign_total=total,
                on_result=on_result,
                on_failure=on_failure,
                needs=[need for _, _, need in batch],
                inputs=policies,
            )
        except CellExecutionError as exc:
            # Persist the post-mortem (cause + full traceback) into the
            # job's failure artifact before surfacing the error.
            self._store_put_failure(exc.spec, exc.cause, exc.traceback_text)
            raise
        except ExecutorInterrupted as exc:
            raise CampaignInterrupted(
                exc.reason, completed=served + exc.completed, total=total,
            ) from exc

    # --- guarded persistence --------------------------------------------------

    def _store_put(self, spec: Job, payload: dict[str, Any]) -> None:
        """Cache writes must never kill a campaign (ENOSPC et al. degrade
        to a warning: the result still reaches the report, only the cache
        misses out)."""
        if self.store is None:
            return
        try:
            self.store.put(spec, payload)
        except OSError as exc:
            _LOG.warning("result-cache write failed for %s: %s", spec.label, exc)

    def _store_put_failure(self, spec: Job, cause: str, traceback_text: str) -> None:
        if self.store is None:
            return
        try:
            self.store.put_failure(spec, cause, traceback_text)
        except OSError as exc:
            _LOG.warning("failure-artifact write failed for %s: %s",
                         spec.label, exc)


@dataclass(kw_only=True)
class EngineOptions:
    """The engine options every campaign driver takes, and the one recipe
    that turns them into a :class:`CampaignEngine`.

    :class:`~repro.core.experiment.ExperimentRunner`,
    :class:`~repro.report.paper.PaperEvaluator` and
    :class:`~repro.core.loadlatency.LoadLatencySweep` inherit this, so the
    same options build the same executor, store and progress chain
    whichever driver holds them.  ``jobs > 1`` executes cells in
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
    #: Cooperative shutdown token (see repro.exec.resilience.graceful_shutdown).
    cancel: ShutdownFlag | None = None
    progress: ProgressCallback | None = None
    #: Optional profiler: every engine run becomes a phase and every
    #: finished job a span, exportable as Chrome trace-event JSON.
    profiler: SimProfiler | None = None
    _engine: CampaignEngine | None = field(default=None, init=False, repr=False)

    @property
    def engine(self) -> CampaignEngine:
        """The driver's engine, built on first use."""
        if self._engine is None:
            self._engine = CampaignEngine(
                executor=CellExecutor(jobs=self.jobs, timeout_s=self.timeout_s),
                store=(
                    ResultStore(self.cache_dir)
                    if self.use_cache or self.cache_dir is not None
                    else None
                ),
                progress=chain_progress(
                    self.progress,
                    self.profiler.record_job
                    if self.profiler is not None
                    else None,
                ),
                failure_policy=self.failure_policy,
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
