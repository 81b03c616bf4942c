"""Cell execution: the pure function every executor runs.

``execute_cell_payload`` is the unit of work shipped to worker processes:
it must be a module-level function (picklable by reference), take only the
picklable :class:`~repro.exec.spec.CellSpec`, and return only JSON-safe
data.  Serial and parallel executors both run cells through this function,
so a campaign's results are independent of the executor used.

Each cell is *self-contained*: trace generation and (for RL techniques)
agent pre-training happen inside the cell from the spec's seed, never
shared across cells.  That is what makes cells order-independent,
parallelizable and cacheable — the pre-trained policy is a deterministic
function of ``(technique, pretrain_cycles, seed, faults)``, so a
per-process memo plus a deep copy per cell reproduces it exactly without
paying the training cost for every benchmark.
"""

from __future__ import annotations

import copy
import time
from typing import Any

from repro.config import ControlPolicy, SimulationConfig, fingerprint
from repro.exec.spec import CellSpec
from repro.metrics.summary import RunMetrics, run_to_metrics
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.traffic.trace import Trace
from repro.utils.rng import make_rng

# Per-process memo of pre-trained master policies.  Safe under fork and
# spawn alike: entries are only ever *read* through deepcopy.
_PRETRAIN_MEMO: dict[str, object] = {}


def build_trace(spec: CellSpec) -> Trace:
    """Generate the cell's workload trace from the spec alone."""
    noc = spec.technique.noc
    w = spec.workload
    if w.kind == "parsec":
        return generate_parsec_trace(
            w.name, noc.width, noc.height, w.duration, w.packet_size, spec.seed
        )
    rng = make_rng(spec.seed, f"synthetic/{w.name}/{w.injection_rate}")
    return generate_synthetic_trace(
        SyntheticPattern(w.name),
        noc.num_nodes,
        noc.width,
        w.duration,
        w.injection_rate,
        w.packet_size,
        rng,
        hotspots=w.hotspots,
    )


def _policy_for(spec: CellSpec) -> object | None:
    """Deterministic pre-trained RL policy for the cell, or None."""
    if spec.technique.policy is not ControlPolicy.RL or spec.pretrain_cycles <= 0:
        return None
    from repro.core.intellinoc import pretrain_agents  # avoid import cycle

    key = fingerprint(
        {
            "technique": spec.technique,
            "faults": spec.faults,
            "seed": spec.seed,
            "pretrain_cycles": spec.pretrain_cycles,
        }
    )
    if key not in _PRETRAIN_MEMO:
        _PRETRAIN_MEMO[key] = pretrain_agents(
            spec.technique,
            duration=spec.pretrain_cycles,
            seed=spec.seed,
            faults=spec.faults,
        )
    # Agents learn online during the run; hand out a pristine copy so the
    # memoized master (RNG state included) is never mutated.
    return copy.deepcopy(_PRETRAIN_MEMO[key])


def execute_cell(spec: CellSpec) -> RunMetrics:
    """Run one cell to completion and summarize it."""
    from repro.noc.network import Network  # avoid import cycle

    trace = build_trace(spec)
    config = SimulationConfig(
        technique=spec.technique, seed=spec.seed, faults=spec.faults
    )
    network = Network(config, trace, policy=_policy_for(spec))
    return run_to_metrics(network, spec.max_cycles)


def execute_cell_payload(spec: CellSpec) -> dict[str, Any]:
    """Executor entry point: run a cell, return the JSON-safe artifact body."""
    started = time.perf_counter()
    metrics = execute_cell(spec)
    return {
        "metrics": metrics.to_dict(),
        "runtime_seconds": time.perf_counter() - started,
    }
