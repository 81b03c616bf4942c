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
back.

Failure: a job that raises or crashes its worker is re-dispatched at once
(``retries`` times, default once); a job that still fails raises
:class:`CellExecutionError`, which ends the run.  No deadline is needed:
every job bounds its own cycle count (docs/resilience.md).

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
from typing import TYPE_CHECKING, Any

from repro.exec.resilience import ExecutorInterrupted, ShutdownFlag
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

#: ``fn(job)``, or ``fn(job, prerequisite_payload)`` for a job with a need.
CellFn = Callable[..., dict[str, Any]]

#: The hook the engine uses to persist work the moment it lands: called
#: with ``(index, spec, payload)`` as each job finishes, in the executor's
#: own process — this is what makes the store crash-safe.
ResultHook = Callable[[int, Job, dict[str, Any]], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress callback: a job started, finished, retried or failed."""

    # "start" | "done" | "retry" | "failed" | "cached"
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
        cancel: ShutdownFlag | None = None,
        completed_offset: int = 0,
        campaign_total: int | None = None,
        on_result: ResultHook | None = None,
        needs: Sequence[str | None] = (),
        inputs: Mapping[str, dict[str, Any]] | None = None,
    ) -> list[dict[str, Any]]:
        total = campaign_total if campaign_total is not None else len(specs)
        results: list[dict[str, Any] | None] = [None] * len(specs)
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
        # future -> (index, monotonic submit time)
        inflight: dict[Future[dict[str, Any]], tuple[int, float]] = {}
        completed = completed_offset
        draining = False
        pool = self._pool()

        def fail(idx: int, cause: str, tb: str = "", duration_s: float = 0.0) -> None:
            if draining:
                # Shutdown drain: the cell stays unfinished (the store has
                # no artifact for it), so a rerun re-executes it.
                return
            spec, attempt = specs[idx], attempts[idx]
            kind = "retry" if attempt <= self.retries else "failed"
            _emit(progress, ProgressEvent(
                kind, spec, completed, total, error=cause,
                traceback=tb, duration_s=duration_s, attempt=attempt,
            ))
            if kind == "failed":
                raise CellExecutionError(spec, cause, tb)
            pending.appendleft(idx)

        def rebuild_pool() -> None:
            # The pool is unusable; every in-flight cell is doomed with it.
            # Charge each one attempt and rebuild.
            nonlocal pool
            now = time.monotonic()
            for idx, submitted in inflight.values():
                fail(idx, "worker pool broke while cell was in flight",
                     duration_s=now - submitted)
            inflight.clear()
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
                        parked.setdefault(need, []).append(idx)
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

                done, _ = wait(
                    set(inflight),
                    # Poll the shutdown flag while it can be set.
                    timeout=0.2 if cancel is not None else None,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                for fut in done:
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
                        results[idx] = payload
                        completed += 1
                        if idx in provides:
                            ready[provides[idx]] = payload
                            if not draining:  # a drain leaves them unfinished
                                pending.extend(parked.pop(provides[idx], []))
                        if on_result is not None:
                            on_result(idx, specs[idx], payload)
                        _emit(progress, ProgressEvent(
                            "done", specs[idx], completed, total,
                            seconds=float(payload.get("runtime_seconds", 0.0)),
                            duration_s=elapsed,
                        ))

                if broken:
                    rebuild_pool()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if draining:
            raise ExecutorInterrupted(
                cancel.reason if cancel is not None else "",
                completed=completed - completed_offset,
            )
        return results  # type: ignore[return-value]  # every slot resolved above
