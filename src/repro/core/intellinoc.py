"""RL pre-training (Section 6.3): tune and pre-train on blackscholes, test
on the rest of PARSEC.

:func:`pretrain_agents` is what a :class:`~repro.exec.spec.PretrainSpec`
job runs (:func:`repro.exec.worker.pretrain`); the cells that name the job
deploy the policy it returns.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import FaultConfig, SimulationConfig, TechniqueConfig
from repro.control.policies import RlPolicy, make_policy
from repro.exec.spec import training_technique
from repro.noc.network import Network
from repro.noc.topology import build_topology
from repro.traffic.parsec import PARSEC_PROFILES, generate_parsec_trace
from repro.traffic.trace import Trace, TraceEvent
from repro.utils.rng import RngFactory


def pretrain_agents(
    technique: TechniqueConfig,
    duration: int,
    seed: int = 1,
    benchmark: str = "blackscholes",
    faults: FaultConfig | None = None,
) -> RlPolicy:
    """Pre-train per-router RL agents (Section 6.3).

    Runs the RL technique on *benchmark* (the paper uses blackscholes, the
    same workload used for hyperparameter tuning) and returns the *master*:
    the trained policy whose agents all share the one trained Q-table.
    *duration* is the training trace's length in cycles (the paper grid's
    is :data:`repro.core.experiment.FULL_GRID`'s ``pretrain``).

    Training runs :func:`~repro.exec.spec.training_technique`: a faster
    control cadence and a higher exploration probability than deployment
    (the state/action spaces are identical, so the learned Q-table
    transfers).  A cell never runs the master itself:
    :meth:`RlPolicy.deploy <repro.control.policies.RlPolicy.deploy>` builds
    its agents from the cell's own technique, each with a private copy of
    the table (:func:`repro.exec.worker.execute_cell` does this for every
    cell).
    """
    training = training_technique(technique)
    config = SimulationConfig(
        technique=training,
        seed=seed,
        faults=faults if faults is not None else FaultConfig(),
    )
    noc = technique.noc
    # Load sweep: benchmark profiling (Section 5) exposes the agents to the
    # whole feature range, so the trace cycles the tuning benchmark through
    # quiet-to-heavy intensities.  Without it, agents trained on a light
    # trace never visit busy states and over-gate on heavier workloads.
    profile = PARSEC_PROFILES[benchmark]
    # Bracket the deployment range (swa's 0.006 .. can's 0.030 pkt/node/cyc
    # when benchmark=blackscholes at 0.008).
    multipliers = (0.5, 1.0, 2.0, 3.0, 4.5)
    segment = max(1000, duration // len(multipliers))
    events = []
    for i, mult in enumerate(multipliers):
        offset = i * segment
        if offset >= duration:
            break  # the run ends before this segment's first event is due
        scaled = replace(profile, injection_rate=min(0.45, profile.injection_rate * mult))
        seg_trace = generate_parsec_trace(
            scaled, noc.width, noc.height, segment, noc.flits_per_packet, seed + i
        )
        events.extend(
            TraceEvent(e.cycle + offset, e.src, e.dst, e.size, e.reply)
            for e in seg_trace.events
        )
    trace = Trace(events, name=f"{benchmark}-pretrain")
    policy = make_policy(training, build_topology(noc).num_routers, RngFactory(seed))
    if not isinstance(policy, RlPolicy):
        raise ValueError(f"technique {technique.name} has no RL agents to pre-train")
    # Shared-table pre-training: all 64 agents update one Q-table, turning
    # 64x more experience into each state's estimates (the routers face the
    # same decision problem; per-router tables re-specialize online during
    # the test phase, in the private copies `RlPolicy.deploy` hands out).
    # Training runs uncapped — an LRU-capped table would evict the quiet
    # states learned early in the sweep while the heavy segments run.
    shared = policy.agents[0].qtable
    shared.max_entries = None
    for agent in policy.agents:
        agent.qtable = shared
    Network(config, trace, policy=policy).run(duration)
    return policy
