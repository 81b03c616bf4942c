"""``repro.telemetry`` — zero-overhead-when-off observation.

The observability layer of the reproduction (``docs/observability.md``,
"What a run leaves behind"):

* :class:`Telemetry` — the hub: the cycle-stamped event stream of one
  simulation, dense kinds sampled on a configurable cycle stride, closed
  by one ``final`` record holding the run's totals.  Pass one to
  :class:`~repro.noc.network.Network` (or ``repro run --observe DIR``) to
  watch mode transitions, reward decompositions, retransmission bursts
  and thermal trajectories as they happen.
* :class:`SimProfiler` — the one wall-clock profiler: orchestration spans
  (trace generation, pre-training, engine runs, campaign jobs) and, as the
  one sanctioned probe *inside* the cycle loop, per-``Network.step``-phase
  attribution with stride sampling and router/channel heat tables, under
  the bit-identical-runs contract (NOC405 statically enforces that no
  other clock reads the cycle domain).  One Chrome trace holds both.
* :class:`CampaignTraceSink` — turns the execution engine's progress-event
  stream into the wall-stamped JSONL campaign log.

Both JSONL streams share one envelope and one encoder
(:mod:`repro.telemetry.sinks`).

Layering: this package sits below the orchestration layer — simulation
packages may import it, and it imports no simulator or campaign code.  It
obeys the same determinism lint rules as the simulator itself (no
wall-clock/entropy reads outside the monotonic profiler clock).
"""

from repro.telemetry.campaign import (
    CampaignTraceSink,
    chain_progress,
    describe_progress_event,
)
from repro.telemetry.hub import Telemetry
from repro.telemetry.simprof import (
    CHROME_TRACE_SCHEMA,
    OVERHEAD_PHASE,
    STEP_PHASES,
    PhaseSpan,
    SimProfiler,
)
from repro.telemetry.sinks import EVENTS_SCHEMA, read_events_jsonl, write_events_jsonl

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "CampaignTraceSink",
    "EVENTS_SCHEMA",
    "OVERHEAD_PHASE",
    "PhaseSpan",
    "STEP_PHASES",
    "SimProfiler",
    "Telemetry",
    "chain_progress",
    "describe_progress_event",
    "read_events_jsonl",
    "write_events_jsonl",
]
