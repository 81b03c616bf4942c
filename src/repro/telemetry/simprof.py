"""The profiler: wall time per orchestration phase and per ``Network.step``
sub-phase, on one clock, in one Chrome trace.

Two altitudes, one class:

* **Orchestration spans** — ``phase()`` / ``record_span()`` time trace
  generation, pre-training, engine runs and individual campaign jobs
  (``record_job`` is the progress callback that turns each finished job
  into a span).
* **The cycle loop** — the network calls ``begin_step`` once per cycle
  and ``lap(phase)`` between sub-phases on sampled steps, and the profiler
  accumulates per-phase wall totals and per-router / per-channel
  utilization heat tables.

``to_chrome_trace`` lays the spans on ``tid 0`` and "one averaged step"
on ``tid 1``, so perf work knows both which phase of a campaign and which
phase of the cycle loop to attack first.

The in-loop probes keep the bit-identical-runs contract the telemetry hub
honors (``docs/observability.md``), at a measured near-zero cost when off:

* **One code path.**  The probes live in the only body of the cycle
  loop (``Network.step`` / ``_step_routers`` / ``Router.step``); on a
  step that is not sampled, and on a ``Network`` without a profiler,
  ``lap`` is None and a probe is one ``is not None`` test — 134 tests a
  cycle at the paper's load, 253 at saturation, about 2 ns each: under
  0.1 % of the step (``docs/observability.md``).
* **The clock never leaks.**  The profiler only *reads* a monotonic
  clock and only *writes* its own accumulators; nothing here can reach
  simulation state, so profiled runs are bit-identical to unprofiled
  ones (``tests/telemetry/test_simprof_identical.py`` enforces this).
* **Overhead is self-attributed.**  Every ``lap`` takes two clock reads;
  the second one prices the profiler's own bookkeeping into the
  ``simprof.overhead`` bucket instead of polluting the phase being timed.

Stride sampling keeps the profiler cheap on long runs: with
``stride=N`` only every N-th step is timed (phase *shares* converge
quickly; absolute totals scale by the stride).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Schema tag for the Chrome trace-event export (top-level ``otherData``).
CHROME_TRACE_SCHEMA = "repro-profile/1"

#: Canonical phase order, matching ``Network.step``'s execution order.
#: ``router.*`` phases accumulate across every router stepped in a cycle
#: (opening and closing a VC's worm ride inside ``router.vc_alloc`` / ``router.switch``).
STEP_PHASES: tuple[str, ...] = (
    "scenario.tick",
    "drops.flush",
    "trace.admit",
    "gating.tick",
    "link.deliver",
    "router.rc_scan",
    "router.vc_alloc",
    "router.switch",
    "router.bypass",
    "router.gating",
    "inject",
    "stats.epoch",
    "control.rl",
    "sanitizer.observe",
)

#: The profiler's own bookkeeping bucket (clock reads, dict updates, heat
#: sampling) — reported alongside the phases but excluded from hot-spot
#: ranking by default.
OVERHEAD_PHASE = "simprof.overhead"


@dataclass(frozen=True)
class PhaseSpan:
    """One timed phase: a named interval on the orchestration timeline."""

    name: str
    category: str
    start_s: float  # seconds since the profiler's epoch
    duration_s: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class SimProfiler:
    """Orchestration spans and per-phase cycle-loop attribution.

    Pure observer: owns the only clock in the cycle domain (injected as a
    callable so tests drive it deterministically) and never touches
    simulation state.  Pass one to :class:`~repro.noc.network.Network`
    (or ``repro run --observe DIR``) to profile the cycle loop, or to an
    engine driver's ``profiler`` to time its runs and jobs.
    """

    def __init__(
        self,
        stride: int = 1,
        heat: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if stride < 1:
            raise ValueError("simprof stride must be >= 1")
        self.stride = stride
        self.heat = heat
        self._clock = clock
        self._epoch = clock()
        self.spans: list[PhaseSpan] = []
        self.steps_seen = 0
        self.steps_profiled = 0
        self.overhead_s = 0.0
        self.first_cycle: int | None = None
        self.last_cycle: int | None = None
        self._mark = 0.0
        self._phase_s: dict[str, float] = {}
        self._phase_laps: dict[str, int] = {}
        # Heat tables, lazily sized on the first sampled step: per element,
        # the number of sampled steps it held flits and the flit-count sum.
        self._router_busy: list[int] = []
        self._router_flits: list[int] = []
        self._channel_busy: list[int] = []
        self._channel_flits: list[int] = []
        #: Optional display labels for channel indices (set by the network).
        self.channel_labels: list[str] | None = None

    # --- orchestration spans --------------------------------------------------

    def now_s(self) -> float:
        """Seconds since this profiler was created (monotonic)."""
        return self._clock() - self._epoch

    @contextmanager
    def phase(self, name: str, category: str = "phase", **args: Any) -> Iterator[None]:
        """Time one orchestration phase::

            with profiler.phase("engine.run", cells=12):
                engine.run(specs)
        """
        start = self.now_s()
        try:
            yield
        finally:
            self.spans.append(
                PhaseSpan(name, category, start, self.now_s() - start, dict(args))
            )

    def record_span(
        self,
        name: str,
        duration_s: float,
        category: str = "cell",
        end_s: float | None = None,
        **args: Any,
    ) -> PhaseSpan:
        """Record a span timed elsewhere (e.g. an executor's ``duration_s``).

        When *end_s* is omitted the span is anchored so it ends now — the
        natural fit for progress events that arrive at completion time.
        """
        if duration_s < 0:
            raise ValueError("span duration cannot be negative")
        end = self.now_s() if end_s is None else end_s
        span = PhaseSpan(name, category, max(0.0, end - duration_s),
                         duration_s, dict(args))
        self.spans.append(span)
        return span

    def record_job(self, event: Any) -> None:
        """Progress callback: one span per finished job.

        Uses the executor-measured ``duration_s`` (anchored to end *now*),
        in the category of the job's kind (``cell`` or ``pretrain``) —
        failures included, as ``cell-failed`` / ``pretrain-failed``.  The
        executor's ``ProgressEvent`` is duck-typed: this package sits below
        ``repro.exec`` in the import graph.
        """
        kind = getattr(event, "kind", "")
        if kind not in ("done", "failed"):
            return
        spec = getattr(event, "spec", None)
        job = getattr(spec, "job", "cell")
        duration = max(0.0, float(getattr(event, "duration_s", 0.0)))
        category = job if kind == "done" else f"{job}-failed"
        self.record_span(str(getattr(spec, "label", "cell")), duration,
                         category=category, kind=kind)

    def summary(self) -> list[tuple[str, int, float]]:
        """(name, span count, total seconds), ordered by first occurrence."""
        totals: dict[str, tuple[int, float]] = {}
        for span in self.spans:
            count, seconds = totals.get(span.name, (0, 0.0))
            totals[span.name] = (count + 1, seconds + span.duration_s)
        return [(name, count, seconds) for name, (count, seconds) in totals.items()]

    # --- probe points (called from the cycle loop) ----------------------------

    def begin_step(self, cycle: int) -> bool:
        """Open a profiled step.  Returns False off-stride (skip the laps)."""
        seen = self.steps_seen
        self.steps_seen = seen + 1
        if seen % self.stride:
            return False
        if self.first_cycle is None:
            self.first_cycle = cycle
        self.last_cycle = cycle
        self._mark = self._clock()
        return True

    def lap(self, phase: str) -> None:
        """Attribute the time since the previous probe to *phase*.

        The second clock read prices the accounting itself into
        ``simprof.overhead`` so phase totals stay honest.
        """
        now = self._clock()
        self._phase_s[phase] = self._phase_s.get(phase, 0.0) + (now - self._mark)
        self._phase_laps[phase] = self._phase_laps.get(phase, 0) + 1
        end = self._clock()
        self.overhead_s += end - now
        self._mark = end

    def end_step(
        self,
        router_flits: Sequence[int] | None = None,
        channel_flits: Sequence[int] | None = None,
    ) -> None:
        """Close a profiled step, folding in optional heat samples.

        The caller builds the flit-count snapshots *after* its last
        ``lap``, so their cost (and the accumulation here) lands in the
        overhead bucket, not in any phase.
        """
        now = self._clock()
        self.overhead_s += now - self._mark
        if router_flits is not None:
            _accumulate(self._router_busy, self._router_flits, router_flits)
        if channel_flits is not None:
            _accumulate(self._channel_busy, self._channel_flits, channel_flits)
        self.steps_profiled += 1
        end = self._clock()
        self.overhead_s += end - now
        self._mark = end

    # --- aggregation ----------------------------------------------------------

    def phase_totals(self) -> dict[str, float]:
        """Seconds per phase, canonical order first, overhead last."""
        out: dict[str, float] = {}
        for name in STEP_PHASES:
            if name in self._phase_s:
                out[name] = self._phase_s[name]
        for name, seconds in self._phase_s.items():
            if name not in out:
                out[name] = seconds
        out[OVERHEAD_PHASE] = self.overhead_s
        return out

    def phase_laps(self) -> dict[str, int]:
        """Number of ``lap`` probes folded into each phase."""
        return dict(self._phase_laps)

    def total_s(self) -> float:
        """Wall seconds across all profiled steps (phases + overhead)."""
        return sum(self._phase_s.values()) + self.overhead_s

    def phase_shares(self) -> dict[str, float]:
        """Phase -> fraction of the profiled wall time (sums to ~1)."""
        total = self.total_s()
        if total <= 0.0:
            return {name: 0.0 for name in self.phase_totals()}
        return {name: s / total for name, s in self.phase_totals().items()}

    def hot_spots(
        self, top_n: int = 5, include_overhead: bool = False
    ) -> list[tuple[str, float, float]]:
        """Top phases by wall share: ``(phase, seconds, share)`` descending."""
        shares = self.phase_shares()
        rows = [
            (name, self._phase_s.get(name, self.overhead_s), share)
            for name, share in shares.items()
            if include_overhead or name != OVERHEAD_PHASE
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[: max(0, top_n)]

    # --- heat tables ----------------------------------------------------------

    def router_heat(self) -> list[dict[str, Any]]:
        """Per-router utilization over the sampled steps."""
        return self._heat_rows("router", self._router_busy, self._router_flits, None)

    def channel_heat(self) -> list[dict[str, Any]]:
        """Per-channel occupancy over the sampled steps."""
        return self._heat_rows(
            "channel", self._channel_busy, self._channel_flits, self.channel_labels
        )

    def _heat_rows(
        self,
        kind: str,
        busy: list[int],
        flits: list[int],
        labels: list[str] | None,
    ) -> list[dict[str, Any]]:
        steps = max(1, self.steps_profiled)
        rows: list[dict[str, Any]] = []
        for index, (b, f) in enumerate(zip(busy, flits)):
            row: dict[str, Any] = {
                kind: index,
                "busy_share": round(b / steps, 6),
                "mean_flits": round(f / steps, 6),
            }
            if labels is not None and index < len(labels):
                row["label"] = labels[index]
            rows.append(row)
        return rows

    # --- export ---------------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """The ``chrome://tracing`` / Perfetto JSON object.

        ``tid 0``: the orchestration spans, by start time.  ``tid 1`` (when
        any step was profiled): the step phases laid back-to-back in
        canonical order — a flamegraph of "one averaged step", scaled to
        total profiled seconds.  All events are complete (``X``) events
        with microsecond timestamps.
        """
        events = [
            _complete(span.name, span.category, span.start_s, span.duration_s,
                      0, span.args)
            for span in sorted(self.spans, key=lambda s: s.start_s)
        ]
        if self.steps_profiled:
            cursor = 0.0
            for name, seconds in self.phase_totals().items():
                events.append(_complete(name, "simprof", cursor, seconds, 1,
                                        {"laps": self._phase_laps.get(name, 0)}))
                cursor += seconds
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": CHROME_TRACE_SCHEMA,
                "stride": self.stride,
                "steps_seen": self.steps_seen,
                "steps_profiled": self.steps_profiled,
            },
        }

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON; returns the path."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_chrome_trace()), encoding="utf-8")
        return out

    def __repr__(self) -> str:
        return (
            f"SimProfiler(stride={self.stride}, {len(self.spans)} spans, "
            f"profiled={self.steps_profiled}/{self.steps_seen} steps, "
            f"{len(self._phase_s)} phases, {self.total_s():.3f}s)"
        )


def _complete(
    name: str, category: str, start_s: float, duration_s: float, tid: int,
    args: dict[str, Any],
) -> dict[str, Any]:
    return {
        "name": name,
        "cat": category,
        "ph": "X",
        "ts": round(start_s * 1e6, 3),
        "dur": round(duration_s * 1e6, 3),
        "pid": 0,
        "tid": tid,
        "args": args,
    }


def _accumulate(busy: list[int], flits: list[int], sample: Sequence[int]) -> None:
    """Fold one flit-count snapshot into the (lazily sized) heat arrays."""
    if len(busy) < len(sample):
        grow = len(sample) - len(busy)
        busy.extend([0] * grow)
        flits.extend([0] * grow)
    for index, count in enumerate(sample):
        if count:
            busy[index] += 1
            flits[index] += count
