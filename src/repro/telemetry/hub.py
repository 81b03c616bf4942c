"""The :class:`Telemetry` hub: the in-simulation event stream.

One hub instance observes one simulation run.  It owns an in-memory event
trace: dict records with a ``kind`` and the simulated ``cycle`` they were
observed at, the dense kinds sampled on a configurable cycle stride, and
closed by one ``final`` record carrying the run's totals (the numbers a
metrics snapshot would hold, read from model state at the end of the run).

Determinism contract: the hub never reads clocks or entropy and never
mutates simulator state — every record is a pure observation.  With no hub
passed, instrumented code skips all telemetry work, so unobserved runs are
bit-identical to uninstrumented ones.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

#: Cap on retained trace events; beyond it events are counted but dropped,
#: so an accidentally unstrided long run degrades instead of exhausting
#: memory.  Generous: a JSONL line is ~100 bytes.
DEFAULT_MAX_EVENTS = 1_000_000


class Telemetry:
    """Event tracer for one run."""

    def __init__(
        self,
        trace_stride: int = 1,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        if trace_stride < 1:
            raise ValueError("trace stride must be >= 1")
        if max_events < 0:
            raise ValueError("max_events cannot be negative")
        self.trace_stride = trace_stride
        self.max_events = max_events
        self.events: list[dict[str, Any]] = []
        self.dropped_events = 0

    def sampled(self, cycle: int) -> bool:
        """Whether high-frequency events at *cycle* fall on the stride."""
        return cycle % self.trace_stride == 0

    def record(self, kind: str, cycle: int, **fields: Any) -> None:
        """Append one trace event (JSON-safe field values only)."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        event: dict[str, Any] = {"kind": kind, "cycle": cycle}
        event.update(fields)
        self.events.append(event)

    def finish(self, cycle: int, **totals: Any) -> None:
        """Append the closing ``final`` record.  It ignores the cap: it is
        the record that reports how many events the cap dropped."""
        self.events.append(
            {"kind": "final", "cycle": cycle, **totals,
             "dropped_events": self.dropped_events}
        )

    def events_of(self, kind: str) -> list[dict[str, Any]]:
        """All recorded events of one kind, in record order."""
        return [e for e in self.events if e["kind"] == kind]

    def write_trace(self, path: str | Path) -> Path:
        """Write the event stream as JSON lines; returns the path."""
        from repro.telemetry.sinks import write_events_jsonl

        return write_events_jsonl(path, self.events, scope="run")

    def __repr__(self) -> str:
        return (
            f"Telemetry(stride={self.trace_stride}, {len(self.events)} events, "
            f"{self.dropped_events} dropped)"
        )
