"""Job execution: the pure function every executor runs.

``execute_job`` is the unit of work shipped to worker processes: it must
be a module-level function (picklable by reference), take only the
picklable job spec (plus, for an RL cell, its pre-training job's payload)
and return only plain data.  Executors run every job through this
function, in process or in a pool, so a campaign's results are
independent of the executor used.

There are two kinds of job.  A :class:`~repro.exec.spec.PretrainSpec`
pre-trains the RL agents and returns the master policy as a
:mod:`repro.rl.persistence` artefact.  A :class:`~repro.exec.spec.CellSpec`
generates its trace from the spec's seed and, when it names a pre-training
job, deploys a fresh load of that job's artefact: the agents learn online
during the run, so each cell owns its copy.  The artefact loads back
exactly, so a cell's result is a pure function of its spec whichever
process trained the policy, and whether it came from the store or not.
``repro run`` calls :func:`pretrain` and :func:`execute_cell` directly,
with its observers, and so prints what a campaign stores for its spec.
"""

from __future__ import annotations

import gc
import time
from contextlib import AbstractContextManager, nullcontext
from typing import Any

from repro.config import SimulationConfig
from repro.control.policies import RlPolicy
from repro.exec.spec import CellSpec, Job, PretrainSpec
from repro.metrics.summary import RunMetrics, run_to_metrics
from repro.rl.persistence import policy_from_bytes, policy_to_bytes
from repro.telemetry import SimProfiler, Telemetry
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.traffic.trace import Trace
from repro.utils.rng import make_rng


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


def pretrain(job: PretrainSpec) -> RlPolicy:
    """The master policy a pre-training job produces."""
    from repro.core.intellinoc import pretrain_agents  # avoid import cycle

    return pretrain_agents(
        job.technique, duration=job.pretrain_cycles, seed=job.seed, faults=job.faults
    )


def _phase(
    simprof: SimProfiler | None, name: str, **args: Any
) -> AbstractContextManager[None]:
    return nullcontext() if simprof is None else simprof.phase(name, **args)


def execute_cell(
    spec: CellSpec,
    policy: RlPolicy | None = None,
    *,
    telemetry: Telemetry | None = None,
    simprof: SimProfiler | None = None,
) -> RunMetrics:
    """Run one cell to completion and summarize it.

    A cell that names a pre-training job deploys *policy*, a copy of that
    job's master it may consume, at its own exploration rate; any other
    cell takes none.  *telemetry* and *simprof* observe the run (``repro
    run --observe``); a profiler also times the ``trace.generate`` and
    ``simulate`` spans.
    """
    from repro.noc.network import Network  # avoid import cycle

    if (policy is None) != (spec.pretraining is None):
        raise ValueError(
            f"{spec.label}: a pre-trained policy goes with, and only with, "
            "a cell that names a pre-training job"
        )
    if policy is not None:
        for agent in policy.agents:
            agent.policy.epsilon = spec.technique.rl.epsilon
    w = spec.workload
    with _phase(simprof, "trace.generate", benchmark=w.name):
        trace = build_trace(spec)
    config = SimulationConfig(
        technique=spec.technique, seed=spec.seed, faults=spec.faults
    )
    network = Network(
        config, trace, policy=policy, telemetry=telemetry, simprof=simprof
    )
    with _phase(simprof, "simulate", benchmark=w.name, duration=w.duration):
        return run_to_metrics(network, spec.max_cycles)


def _run(job: Job, prerequisite: dict[str, Any] | None) -> dict[str, Any]:
    if isinstance(job, PretrainSpec):
        return {"policy": policy_to_bytes(pretrain(job))}
    policy = None if prerequisite is None else policy_from_bytes(prerequisite["policy"])
    return {"metrics": execute_cell(job, policy).to_dict()}


def execute_job(job: Job, prerequisite: dict[str, Any] | None = None) -> dict[str, Any]:
    """Executor entry point: run a job, return its artefact payload.

    A cell's payload is its ``RunMetrics.to_dict()``; a pre-training job's
    is the master policy's bytes.  *prerequisite* is the payload of the
    pre-training job a cell names.

    The one place a finished job is released: a ``Network`` is a graph of
    reference cycles (router links, bound callbacks) and the cycle loop
    allocates too few containers to trigger a full collection, so without
    this every finished job's simulator would stay resident.
    """
    started = time.perf_counter()
    payload = _run(job, prerequisite)
    payload["runtime_seconds"] = time.perf_counter() - started
    gc.collect()
    return payload
