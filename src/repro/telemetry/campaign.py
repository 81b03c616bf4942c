"""Campaign-level structured logging: the executor progress-event sink.

The execution engine reports the lifecycle of every job — a campaign cell,
or the pre-training job RL cells deploy — through ``ProgressEvent``
callbacks (start / done / cached / retry / failed / quarantined).  The
sink here turns that stream into an append-only JSONL log in the one
event envelope (:mod:`repro.telemetry.sinks`), so a campaign leaves a
durable, machine-readable record of what ran, how long each cell took,
what was served from the cache, what was retried, and what was
quarantined.  (The log is diagnostics: what a rerun resumes from is the
result store; see docs/resilience.md.)

The sink is deliberately *duck-typed* over the event object (it reads
``kind``/``completed``/``total``/``duration_s``/... by ``getattr``): the
telemetry package sits below the orchestration layer in the import graph
(`repro.exec` may import telemetry, never the reverse), so it cannot
import ``repro.exec.executors`` for the type.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.telemetry.sinks import encode_event, header

ProgressLike = Any  # duck-typed executor ProgressEvent
ProgressCallbackLike = Callable[[ProgressLike], None]


def describe_progress_event(event: ProgressLike) -> dict[str, Any]:
    """Flatten one executor ProgressEvent into a JSON-safe record."""
    spec = getattr(event, "spec", None)
    record: dict[str, Any] = {
        "kind": getattr(event, "kind", "unknown"),
        "job": getattr(spec, "job", "cell"),
        "label": getattr(spec, "label", ""),
        "completed": getattr(event, "completed", 0),
        "total": getattr(event, "total", 0),
    }
    duration = float(getattr(event, "duration_s", 0.0))
    if duration:
        record["duration_s"] = round(duration, 6)
    seconds = float(getattr(event, "seconds", 0.0))
    if seconds:
        record["runtime_s"] = round(seconds, 6)
    error = getattr(event, "error", "")
    if error:
        record["error"] = error
    attempt = int(getattr(event, "attempt", 0))
    if attempt:
        record["attempt"] = attempt
    hasher = getattr(spec, "content_hash", None)
    if callable(hasher):
        record["spec_hash"] = hasher()
    return record


class CampaignTraceSink:
    """Append-only JSONL sink for executor progress events.

    Usable directly as a progress callback::

        profiler = SimProfiler()
        with CampaignTraceSink(path, clock=profiler.now_s) as sink:
            engine = CampaignEngine(progress=sink)

    Opening the sink appends a ``campaign`` header; each event line then
    carries ``t_s`` read from *clock* — the profiler's monotonic seconds,
    so log lines and profile spans share one time base.
    """

    def __init__(self, path: str | Path, clock: Callable[[], float]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._fh = self.path.open("a", encoding="utf-8")
        self._write(header("campaign"))
        self.events_written = 0

    def _write(self, record: dict[str, Any]) -> None:
        self._fh.write(encode_event(record))
        self._fh.flush()

    def __call__(self, event: ProgressLike) -> None:
        record = describe_progress_event(event)
        record["t_s"] = round(self._clock(), 6)
        self._write(record)
        self.events_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "CampaignTraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def chain_progress(
    *callbacks: ProgressCallbackLike | None,
) -> ProgressCallbackLike | None:
    """Compose progress callbacks; None entries are skipped.

    Returns None when nothing remains, a single callback unchanged, or a
    fan-out function calling each in order.
    """
    active = [cb for cb in callbacks if cb is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def fan_out(event: ProgressLike) -> None:
        for cb in active:
            cb(event)

    return fan_out
