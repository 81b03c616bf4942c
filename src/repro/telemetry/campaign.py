"""Campaign-level structured logging: the executor progress-event sink.

The execution engine reports the lifecycle of every job — a campaign cell,
or the pre-training job RL cells deploy — through ``ProgressEvent``
callbacks (start / done / cached / resumed / retry / failed /
quarantined).  The sink here turns that stream into an append-only JSONL
log persisted next to the result store's artifacts, so a campaign leaves
a durable, machine-readable record of what ran, how long each cell took,
what was retried, what was replayed from a resumed journal, and what was
quarantined — without the CLI having to re-clock anything.  (The campaign
*journal* is separate: it is the minimal crash-safe resume substrate,
while this log is the full observability stream; see docs/resilience.md.)

The sink is deliberately *duck-typed* over the event object (it reads
``kind``/``completed``/``total``/``duration_s``/... by ``getattr``): the
telemetry package sits below the orchestration layer in the import graph
(`repro.exec` may import telemetry, never the reverse), so it cannot
import ``repro.exec.executors`` for the type.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.telemetry.profiler import PhaseProfiler

#: Default log filename, placed next to the ResultStore's artifacts.
CAMPAIGN_LOG_NAME = "campaign-events.jsonl"

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

        with CampaignTraceSink(store.cache_dir / CAMPAIGN_LOG_NAME) as sink:
            engine = CampaignEngine(progress=sink)

    Each line carries a monotonic ``t_s`` relative to the sink's creation
    (never the wall clock: the log format stays deterministic-friendly and
    secret-free).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        self._epoch = time.monotonic()  # noqa: NOC105 -- diagnostic campaign-altitude timestamp, never simulated state
        self.events_written = 0

    def __call__(self, event: ProgressLike) -> None:
        record = describe_progress_event(event)
        record["t_s"] = round(time.monotonic() - self._epoch, 6)  # noqa: NOC105 -- diagnostic campaign-altitude timestamp, never simulated state
        self._fh.write(json.dumps(record, sort_keys=True))
        self._fh.write("\n")
        self._fh.flush()
        self.events_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "CampaignTraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def cell_span_recorder(profiler: PhaseProfiler) -> ProgressCallbackLike:
    """A progress callback recording one profiler span per finished job.

    Uses the executor-measured ``duration_s`` (anchored to end *now*), so
    the Chrome trace shows every job as a block on the campaign timeline,
    in the category of its kind (``cell`` or ``pretrain``) — including
    failures, which appear in ``cell-failed`` / ``pretrain-failed``.
    """

    def observe(event: ProgressLike) -> None:
        kind = getattr(event, "kind", "")
        if kind not in ("done", "failed"):
            return
        spec = getattr(event, "spec", None)
        label = getattr(spec, "label", "cell")
        job = getattr(spec, "job", "cell")
        duration = max(0.0, float(getattr(event, "duration_s", 0.0)))
        category = job if kind == "done" else f"{job}-failed"
        profiler.record_span(str(label), duration, category=category, kind=kind)

    return observe


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
