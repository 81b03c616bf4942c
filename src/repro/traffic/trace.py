"""Trace events: the workload currency between generators and simulator.

A trace is a time-sorted sequence of packet-injection events, the same
information Netrace extracts from PARSEC executions (Section 6.3): time,
source, destination, size.  Traces serialize to a simple JSON-lines format
so campaigns can be archived and replayed.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path


@dataclass(frozen=True, order=True)
class TraceEvent:
    """One packet injection.

    ``reply`` marks request-reply traffic (memory requests): the network
    generates a same-size reply packet dst -> src when the request is
    delivered, which couples execution time to latency the way Netrace's
    dependency annotations do.
    """

    cycle: int
    src: int
    dst: int
    size: int  # flits
    reply: bool = False

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("event cycle cannot be negative")
        if self.src == self.dst:
            raise ValueError("source and destination must differ")
        if self.size < 1:
            raise ValueError("packets carry at least one flit")


#: :class:`TraceEvent`'s field order: sorting by it is sorting by the
#: dataclass order, without a generated ``__lt__`` call per comparison.
_EVENT_ORDER = attrgetter("cycle", "src", "dst", "size", "reply")


class Trace:
    """A time-sorted packet trace."""

    def __init__(self, events: Iterable[TraceEvent], name: str = "trace"):
        self.events = sorted(events, key=_EVENT_ORDER)
        self.name = name

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def duration(self) -> int:
        """Cycle of the last injection (0 for an empty trace)."""
        return self.events[-1].cycle if self.events else 0

    @property
    def total_flits(self) -> int:
        return sum(e.size for e in self.events)

    def offered_load(self, num_nodes: int) -> float:
        """Average offered load in flits/node/cycle."""
        if not self.events or num_nodes < 1:
            return 0.0
        span = max(1, self.duration + 1)
        return self.total_flits / (span * num_nodes)

    def slice(self, start: int, end: int) -> "Trace":
        """Events with start <= cycle < end, rebased to cycle 0."""
        if start > end:
            raise ValueError("slice start after end")
        return Trace(
            (
                TraceEvent(e.cycle - start, e.src, e.dst, e.size, e.reply)
                for e in self.events
                if start <= e.cycle < end
            ),
            name=f"{self.name}[{start}:{end}]",
        )

    def fingerprint(self) -> str:
        """Stable sha256 digest of the event stream (name excluded).

        Two traces with identical packets hash identically, so archived
        traces can be verified against the generator parameters that the
        execution engine's cache keys encode.
        """
        h = hashlib.sha256()
        for e in self.events:
            h.update(
                f"{e.cycle},{e.src},{e.dst},{e.size},{int(e.reply)};".encode()
            )
        return h.hexdigest()

    def save(self, path: str | Path) -> None:
        """Write JSON-lines: {"cycle":..,"src":..,"dst":..,"size":..}."""
        path = Path(path)
        with path.open("w") as fh:
            fh.write(json.dumps({"name": self.name}) + "\n")
            for e in self.events:
                fh.write(
                    json.dumps(
                        {
                            "cycle": e.cycle,
                            "src": e.src,
                            "dst": e.dst,
                            "size": e.size,
                            "reply": e.reply,
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        path = Path(path)
        with path.open() as fh:
            header = json.loads(fh.readline())
            events = [
                TraceEvent(
                    d["cycle"], d["src"], d["dst"], d["size"], d.get("reply", False)
                )
                for d in (json.loads(line) for line in fh if line.strip())
            ]
        return cls(events, name=header.get("name", path.stem))

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self.events)} events, {self.duration} cycles)"
