"""Spans recorded by the benchmark's own files, around the calls into each layer.

A span is ``{"id", "name", "run", "parent", "start", "end"}``: ``run`` is the
identifier every span of one repeat shares (``workload/repeat``) and
``parent`` is the id of the span that caused it, or None.  Spans are kept
in memory; the child hands them to the parent in its result record and the
parent writes them out when the run ends.

Times come from ``time.monotonic``, which is system-wide, so the parent's
spawn stamp and the child's spans share one time base.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

Span = dict[str, Any]


class Tracer:
    """Records nested spans of one repeat."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.monotonic):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float) -> Span:
        """Record a finished span under the currently open one."""
        span = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "start": start,
            "end": end,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, start: float | None = None) -> Iterator[Span]:
        """Open a span now (or at an earlier *start* stamp) and close it on exit."""
        span = self.add(name, self.clock() if start is None else start, 0.0)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            self._open.pop()
            span["end"] = self.clock()


def duration(span: Span) -> float:
    return float(span["end"] - span["start"])


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so self time is never negative.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            lo = max(cursor, child["start"])
            hi = min(span["end"], child["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = duration(span) - covered
    return out

