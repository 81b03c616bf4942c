"""The one event-stream format: versioned JSON lines.

Both JSONL streams — a run's cycle-stamped events and a campaign's
wall-stamped progress log — share one envelope.  A line carries ``kind``,
then its clock (``cycle``, simulated time, or ``t_s``, wall seconds), then
its payload.  Every session opens with a ``header`` line naming the schema
and the scope, so a log appended across a resume still shows where each
session's ``t_s`` restarts at 0.

Readers are strict — a malformed line raises, because a trace that cannot
round-trip is a bug, not an operational condition.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any

#: Schema tag carried by every session's header line.
EVENTS_SCHEMA = "repro-events/1"

_ENVELOPE = ("kind", "cycle", "t_s")


def header(scope: str) -> dict[str, Any]:
    """The line that opens one ``run`` or ``campaign`` session."""
    return {"kind": "header", "schema": EVENTS_SCHEMA, "scope": scope}


def encode_event(event: Mapping[str, Any]) -> str:
    """One JSONL line: the envelope keys first, then the payload sorted."""
    line = {key: event[key] for key in _ENVELOPE if key in event}
    line.update(sorted((k, v) for k, v in event.items() if k not in line))
    return json.dumps(line) + "\n"


def write_events_jsonl(
    path: str | Path, events: Iterable[Mapping[str, Any]], scope: str
) -> Path:
    """Write one *scope* session — header, then *events* — as JSON lines."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        fh.write(encode_event(header(scope)))
        for event in events:
            fh.write(encode_event(event))
    return out


def read_events_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL stream back into a list of records, headers included."""
    events: list[dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSONL ({exc})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            events.append(record)
    return events
