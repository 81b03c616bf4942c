"""Executor layer: one job scheduler for ``--jobs 1`` and ``--jobs N``.

:class:`CellExecutor` runs job specs and returns a list of artifact
payloads (``execute_job`` outputs) aligned with them.  Jobs are pure
functions of their spec (and of the payload of the job they need), so
``jobs`` can never change results — only wall-clock time.  At ``jobs ==
1`` each job runs in the calling process; above that, in a process pool.
Everything else is written once for both:

Dependency order: ``needs[i]`` names (by content hash) the job whose
payload job *i* takes as its second argument — an RL cell's pre-training
job.  Job *i* is dispatched once that payload is in hand, from ``inputs``
or from a job of the same batch; jobs that need nothing are never held
back.  A prerequisite that fails for good fails its dependents with its
cause, without running them.

Failure policy: a cell that raises or crashes its worker is re-dispatched
at once (``retries`` times, default once); a cell that still fails either
raises :class:`CellExecutionError` (``failure_mode="raise"``, the default)
or — under ``failure_mode="collect"`` — fills its result slot with a
:class:`~repro.exec.resilience.CellFailure` so the surviving cells
complete.

Deadline: with ``timeout_s`` set, an attempt whose result is not in hand
by ``submitted + timeout_s`` fails as ``timed out after …s`` and its
result, whenever it arrives, is discarded.  A pool worker is abandoned at
the deadline; an in-process attempt cannot be pre-empted, so the same
comparison runs when it returns (a single hung attempt blocks until it
yields — docs/resilience.md).

Graceful shutdown: when a :class:`~repro.exec.resilience.ShutdownFlag` is
set (usually by the SIGINT/SIGTERM handlers), the executor stops
dispatching, drains in-flight cells, and raises
:class:`~repro.exec.resilience.ExecutorInterrupted`.  Every completed
cell was already reported through ``on_result``, so nothing finished is
lost.

Progress accounting is campaign-wide: the engine passes
``completed_offset`` (cache hits served before this batch) and
``campaign_total`` (every deduplicated cell and pre-training job), so a consumer
watching ``completed/total`` sees one stable denominator for the whole
campaign, never a shrinking one.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Union

from repro.exec.resilience import CellFailure, ExecutorInterrupted, ShutdownFlag
from repro.exec.spec import Job
from repro.exec.worker import execute_job

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Exception classes treated as *cell* failures: charged against the retry
#: budget and, once it is spent, surfaced as :class:`CellExecutionError`
#: carrying the formatted traceback.  Anything outside this tuple (e.g. a
#: ``NameError`` from a bug in the harness itself, or ``KeyboardInterrupt``)
#: propagates immediately with its original traceback instead of being
#: silently retried.
CELL_FAILURE_TYPES = (
    ArithmeticError,
    LookupError,
    MemoryError,
    OSError,
    RuntimeError,
    TypeError,
    ValueError,
)

#: One result slot: the artifact payload, or (collect mode) the failure.
CellOutcome = Union[dict[str, Any], CellFailure]

#: ``fn(job)``, or ``fn(job, prerequisite_payload)`` for a job with a need.
CellFn = Callable[..., dict[str, Any]]

#: Hooks the engine uses to persist work the moment it lands: called with
#: ``(index, spec, payload | CellFailure)`` as each cell resolves, in the
#: executor's own process — this is what makes the store crash-safe.
ResultHook = Callable[[int, Job, dict[str, Any]], None]
FailureHook = Callable[[int, Job, CellFailure], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress callback: a job started, finished, retried or failed."""

    # "start" | "done" | "retry" | "failed" | "cached" | "quarantined"
    kind: str
    spec: Job  # ``spec.job``: "cell" | "pretrain"
    completed: int  # campaign-wide jobs finished so far (cache hits included)
    total: int  # campaign-wide denominator; stable for the whole run
    seconds: float = 0.0  # the worker's self-reported cell runtime ("done")
    error: str = ""  # failure description, for "retry"/"failed" events
    traceback: str = ""  # full traceback text, for "retry"/"failed" events
    # Monotonic wall-clock seconds from the attempt's dispatch to this
    # event, as observed by the executor ("done"/"retry"/"failed" events).
    # Unlike ``seconds`` (the worker's self-reported payload runtime) this
    # includes dispatch/pickling overhead and is present for failures.
    duration_s: float = 0.0
    # 1-based attempt number for "retry"/"failed" events.
    attempt: int = 0


class CellExecutionError(RuntimeError):
    """A job kept failing after its retry budget was spent."""

    def __init__(self, spec: Job, cause: str, traceback_text: str = ""):
        super().__init__(f"cell {spec.label} failed: {cause}")
        self.spec = spec
        self.cause = cause
        self.traceback_text = traceback_text


ProgressCallback = Callable[[ProgressEvent], None]


def _emit(progress: ProgressCallback | None, event: ProgressEvent) -> None:
    if progress is not None:
        progress(event)


class _InProcessPool:
    """``ProcessPoolExecutor`` stand-in for ``jobs == 1``: ``submit`` runs
    the job in the calling process (no pickling) and returns a resolved
    future."""

    def submit(self, fn: CellFn, *args: Any) -> Future[dict[str, Any]]:
        future: Future[dict[str, Any]] = Future()
        try:
            future.set_result(fn(*args))
        except CELL_FAILURE_TYPES as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Nothing outlives ``submit``."""


@dataclass
class CellExecutor:
    """Runs jobs — cells, and the pre-training jobs RL cells need —
    ``jobs`` at a time: in the calling process at ``jobs == 1``, in a
    process pool above that.

    Pool workers import :func:`repro.exec.worker.execute_job` by reference
    and receive the (picklable) spec and, for an RL cell, its pre-training
    job's payload — the policy artefact's bytes; no live simulator state
    ever crosses a process boundary.

    A worker crash breaks the whole pool (every in-flight future raises
    ``BrokenProcessPool``, caught as its base ``BrokenExecutor``); the pool
    is rebuilt and each in-flight cell is charged one failed attempt — the
    crasher exhausts its retry and surfaces as a failure, innocents get
    re-run.  A pool that breaks
    between a wait and a submit refuses the submit: the same rebuild runs,
    and the refused cell, which never ran, goes back uncharged.
    """

    jobs: int = 1
    #: Wall-clock budget per attempt, measured from its submission (see
    #: the module docstring for the one deadline rule).
    timeout_s: float | None = None
    retries: int = 1
    fn: CellFn = execute_job

    def __post_init__(self) -> None:
        self.jobs = max(1, self.jobs)  # ``--jobs 0`` means in-process

    def _pool(self) -> ProcessPoolExecutor | _InProcessPool:
        if self.jobs > 1:
            # Imported here: the pool machinery (multiprocessing and 31
            # more modules, 1.8 MB resident) is dead weight in process.
            from concurrent.futures import ProcessPoolExecutor

            return ProcessPoolExecutor(max_workers=self.jobs)
        return _InProcessPool()

    def run(
        self,
        specs: Sequence[Job],
        progress: ProgressCallback | None = None,
        *,
        failure_mode: str = "raise",
        cancel: ShutdownFlag | None = None,
        completed_offset: int = 0,
        campaign_total: int | None = None,
        on_result: ResultHook | None = None,
        on_failure: FailureHook | None = None,
        needs: Sequence[str | None] = (),
        inputs: Mapping[str, dict[str, Any]] | None = None,
    ) -> list[CellOutcome]:
        total = campaign_total if campaign_total is not None else len(specs)
        results: list[CellOutcome | None] = [None] * len(specs)
        attempts = [0] * len(specs)
        started: set[int] = set()  # jobs whose "start" event was emitted
        # Jobs awaiting dispatch; a retry goes to the front.
        pending = deque(range(len(specs)))
        # Prerequisite payloads in hand, jobs parked until theirs lands, and
        # the prerequisites of this batch, by content hash.
        ready: dict[str, dict[str, Any]] = dict(inputs or {})
        parked: dict[str, list[int]] = {}
        needed = {h for h in needs if h is not None}
        hashes = [spec.content_hash() for spec in specs] if needed else []
        provides = {idx: h for idx, h in enumerate(hashes) if h in needed}
        if not needed <= ready.keys() | provides.values():
            raise ValueError("a job needs a payload neither given nor produced")
        lost: dict[str, CellFailure] = {}  # prerequisites that failed for good
        # future -> (index, monotonic submit time)
        inflight: dict[Future[dict[str, Any]], tuple[int, float]] = {}
        # timed-out futures whose results we discard
        abandoned: set[Future[dict[str, Any]]] = set()
        completed = completed_offset
        draining = False
        timeout_s = self.timeout_s
        timed_out = "" if timeout_s is None else f"timed out after {timeout_s:.1f}s"
        pool = self._pool()

        def fail(idx: int, cause: str, tb: str = "", duration_s: float = 0.0) -> None:
            if draining:
                # Shutdown drain: the cell stays unfinished (the store has
                # no artifact for it), so a rerun re-executes it.
                return
            spec, attempt = specs[idx], attempts[idx]
            if attempt <= self.retries:
                _emit(progress, ProgressEvent(
                    "retry", spec, completed, total, error=cause,
                    traceback=tb, duration_s=duration_s, attempt=attempt,
                ))
                pending.appendleft(idx)
                return
            _emit(progress, ProgressEvent(
                "failed", spec, completed, total, error=cause,
                traceback=tb, duration_s=duration_s, attempt=attempt,
            ))
            if failure_mode != "collect":
                raise CellExecutionError(spec, cause, tb)
            give_up(idx, CellFailure(spec, cause, tb, attempts=attempt))

        def give_up(idx: int, failure: CellFailure) -> None:
            results[idx] = failure
            if on_failure is not None:
                on_failure(idx, specs[idx], failure)
            if idx in provides:
                lost[provides[idx]] = failure
                release(provides[idx])

        def release(need: str) -> None:
            # The prerequisite is settled: its parked dependents queue again
            # (unless draining, which leaves them unfinished).
            if not draining:
                pending.extend(parked.pop(need, []))

        def rebuild_pool() -> None:
            # The pool is unusable; every in-flight cell is doomed with it.
            # Charge each one attempt and rebuild.
            nonlocal pool
            now = time.monotonic()
            for idx, submitted in inflight.values():
                fail(idx, "worker pool broke while cell was in flight",
                     duration_s=now - submitted)
            inflight.clear()
            abandoned.clear()
            pool.shutdown(wait=False, cancel_futures=True)
            pool = self._pool()

        try:
            while pending or inflight:
                if cancel is not None and cancel.is_set() and not draining:
                    draining = True
                    pending.clear()  # undispatched cells stay unfinished
                    continue
                refused: int | None = None
                while pending and len(inflight) < self.jobs:
                    idx = pending.popleft()
                    need = needs[idx] if needs else None
                    if need is not None and need not in ready:
                        if need not in lost:
                            parked.setdefault(need, []).append(idx)
                            continue
                        # Its prerequisite failed for good: so does it, unrun.
                        cause = lost[need]
                        error = f"{cause.spec.label} failed: {cause.cause}"
                        _emit(progress, ProgressEvent(
                            "failed", specs[idx], completed, total,
                            error=error, traceback=cause.traceback_text,
                        ))
                        give_up(idx, CellFailure(
                            specs[idx], error, cause.traceback_text
                        ))
                        continue
                    if idx not in started:
                        started.add(idx)
                        _emit(progress, ProgressEvent(
                            "start", specs[idx], completed, total
                        ))
                    args = (specs[idx],) if need is None else (specs[idx], ready[need])
                    submitted = time.monotonic()
                    try:
                        future = pool.submit(self.fn, *args)
                    except BrokenExecutor:
                        # A worker died since the last wait: the pool refuses
                        # work before any future reports the crash.
                        refused = idx
                        break
                    attempts[idx] += 1
                    inflight[future] = (idx, submitted)
                if refused is not None:
                    # The refused cell never ran: it is not charged.
                    rebuild_pool()
                    pending.appendleft(refused)
                    continue

                waits: list[float] = []
                if timeout_s is not None:
                    now = time.monotonic()
                    waits.extend(
                        submitted + timeout_s - now
                        for _, submitted in inflight.values()
                    )
                if cancel is not None:
                    waits.append(0.2)  # poll the shutdown flag
                done, _ = wait(
                    set(inflight) | abandoned,
                    timeout=max(0.0, min(waits)) if waits else None,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                for fut in done:
                    if fut in abandoned:
                        abandoned.discard(fut)  # late result of a timed-out cell
                        continue
                    idx, submitted = inflight.pop(fut)
                    elapsed = time.monotonic() - submitted
                    try:
                        payload = fut.result()
                    except BrokenExecutor:
                        broken = True
                        fail(idx, "worker process crashed", duration_s=elapsed)
                    except CELL_FAILURE_TYPES as exc:
                        # The pickled exception's __cause__ chain carries the
                        # worker-side traceback, so the formatted text names
                        # the real failing simulator line, not fut.result().
                        fail(idx, f"{type(exc).__name__}: {exc}",
                             "".join(traceback.format_exception(exc)),
                             duration_s=elapsed)
                    else:
                        if timeout_s is not None and elapsed >= timeout_s:
                            # In hand, but late: discarded like a result that
                            # lands after its worker was abandoned.
                            fail(idx, timed_out, duration_s=elapsed)
                            continue
                        results[idx] = payload
                        completed += 1
                        if idx in provides:
                            ready[provides[idx]] = payload
                            release(provides[idx])
                        if on_result is not None:
                            on_result(idx, specs[idx], payload)
                        _emit(progress, ProgressEvent(
                            "done", specs[idx], completed, total,
                            seconds=float(payload.get("runtime_seconds", 0.0)),
                            duration_s=elapsed,
                        ))

                if broken:
                    rebuild_pool()
                elif timeout_s is not None:
                    now = time.monotonic()
                    for fut, (idx, submitted) in list(inflight.items()):
                        if now - submitted >= timeout_s:
                            del inflight[fut]
                            if not fut.cancel():
                                abandoned.add(fut)  # running; discard later
                            fail(idx, timed_out, duration_s=now - submitted)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if draining:
            raise ExecutorInterrupted(
                cancel.reason if cancel is not None else "",
                completed=completed - completed_offset,
            )
        return results  # type: ignore[return-value]  # every slot resolved above
