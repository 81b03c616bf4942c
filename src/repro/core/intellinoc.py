"""Top-level public API: :class:`IntelliNoCSystem`.

The facade a downstream user drives:

>>> from repro import IntelliNoCSystem
>>> system = IntelliNoCSystem("intellinoc", seed=7)
>>> metrics = system.run_benchmark("bod", duration=5_000)
>>> metrics.technique
'IntelliNoC'

It wires together configuration, workload generation, optional RL
pre-training (Section 6.3: tune and pre-train on blackscholes, test on the
rest of PARSEC), and metric extraction.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import (
    FaultConfig,
    PowerConfig,
    SimulationConfig,
    TechniqueConfig,
    technique as technique_by_name,
)
from repro.control.policies import ModePolicy, RlPolicy, make_policy
from repro.faults.injection import FaultInjector
from repro.metrics.summary import RunMetrics, run_to_metrics
from repro.noc.network import Network
from repro.rl.qlearning import QTable
from repro.telemetry import SimProfiler, Telemetry
from repro.traffic.parsec import PARSEC_PROFILES, generate_parsec_trace
from repro.traffic.trace import Trace, TraceEvent
from repro.utils.rng import RngFactory


def pretrain_agents(
    technique: TechniqueConfig,
    duration: int,
    seed: int = 1,
    benchmark: str = "blackscholes",
    faults: FaultConfig | None = None,
    training_time_step: int = 250,
    training_epsilon: float = 0.25,
) -> RlPolicy:
    """Pre-train per-router RL agents (Section 6.3).

    Runs the RL technique on *benchmark* (the paper uses blackscholes, the
    same workload used for hyperparameter tuning) and returns the trained
    policy, ready to hand to :class:`IntelliNoCSystem` or
    :class:`repro.noc.network.Network` for the test phase.  *duration* is
    the training trace's length in cycles (the paper grid's is
    :data:`repro.core.experiment.FULL_GRID`'s ``pretrain``).

    Training uses a faster control cadence and a higher exploration
    probability than deployment (the state/action spaces are identical, so
    the learned Q-table transfers); deployment hyperparameters are restored
    on the returned policy.
    """
    training = technique.with_rl(
        time_step=training_time_step, epsilon=training_epsilon
    )
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
    policy = make_policy(training, noc.num_routers, RngFactory(seed))
    if not isinstance(policy, RlPolicy):
        raise ValueError(f"technique {technique.name} has no RL agents to pre-train")
    # Shared-table pre-training: all 64 agents update one Q-table, turning
    # 64x more experience into each state's estimates (the routers face the
    # same decision problem; per-router tables re-specialize online during
    # the test phase, when each deployed agent owns a private copy).
    # Training runs uncapped — an LRU-capped table would evict the quiet
    # states learned early in the sweep while the heavy segments run.
    shared = QTable(
        policy.agents[0].qtable.num_actions,
        training.rl.learning_rate,
        training.rl.discount,
        max_entries=None,
        preferred_action=training.rl.initial_mode,
    )
    for agent in policy.agents:
        agent.qtable = shared
    network = Network(config, trace, policy=policy)
    network.run(duration)
    for agent in policy.agents:
        agent.reset_episode()
        agent.policy.epsilon = technique.rl.epsilon
        private = QTable(
            shared.num_actions,
            technique.rl.learning_rate,
            technique.rl.discount,
            max_entries=None,
            preferred_action=technique.rl.initial_mode,
        )
        shared.clone_into(private)
        agent.qtable = private
    return policy


class IntelliNoCSystem:
    """One configured NoC design, ready to run workloads."""

    def __init__(
        self,
        technique: str | TechniqueConfig = "intellinoc",
        seed: int = 1,
        faults: FaultConfig | None = None,
        power: PowerConfig | None = None,
        policy: ModePolicy | None = None,
        fault_injector: FaultInjector | None = None,
        telemetry: Telemetry | None = None,
        simprof: SimProfiler | None = None,
    ):
        self.technique = (
            technique_by_name(technique) if isinstance(technique, str) else technique
        )
        self.seed = seed
        self.faults = faults if faults is not None else FaultConfig()
        self.power = power if power is not None else PowerConfig()
        self.policy = policy
        self.fault_injector = fault_injector
        self.telemetry = telemetry
        self.simprof = simprof
        self.last_network: Network | None = None

    def _config(self) -> SimulationConfig:
        return SimulationConfig(
            technique=self.technique,
            faults=self.faults,
            power=self.power,
            seed=self.seed,
        )

    def build_network(self, trace: Trace) -> Network:
        """Construct (but do not run) a simulator for *trace*."""
        return Network(
            self._config(),
            trace,
            policy=self.policy,
            fault_injector=self.fault_injector,
            telemetry=self.telemetry,
            simprof=self.simprof,
        )

    def make_trace(self, benchmark: str, duration: int) -> Trace:
        """Generate the synthetic trace of a named PARSEC benchmark."""
        if benchmark not in PARSEC_PROFILES:
            raise KeyError(
                f"unknown benchmark {benchmark!r}; choose from {sorted(PARSEC_PROFILES)}"
            )
        noc = self.technique.noc
        return generate_parsec_trace(
            benchmark, noc.width, noc.height, duration, noc.flits_per_packet, self.seed
        )

    def run_trace(self, trace: Trace, max_cycles: int | None = None) -> RunMetrics:
        """Run *trace* to completion and summarize."""
        network = self.build_network(trace)
        metrics = run_to_metrics(network, max_cycles)
        self.last_network = network
        return metrics

    def run_benchmark(
        self, benchmark: str, duration: int = 10_000, max_cycles: int | None = None
    ) -> RunMetrics:
        """Generate and run one PARSEC benchmark profile."""
        return self.run_trace(self.make_trace(benchmark, duration), max_cycles)

    def with_pretrained_policy(self, duration: int = 20_000) -> "IntelliNoCSystem":
        """Return a copy of this system holding a pre-trained RL policy."""
        policy = pretrain_agents(
            self.technique, duration=duration, seed=self.seed, faults=self.faults
        )
        clone = IntelliNoCSystem(
            self.technique,
            seed=self.seed,
            faults=self.faults,
            power=self.power,
            policy=policy,
            fault_injector=self.fault_injector,
            telemetry=self.telemetry,
            simprof=self.simprof,
        )
        return clone

    def scaled_faults(self, base_bit_error_rate: float) -> "IntelliNoCSystem":
        """Copy with a different injected base error rate (Fig. 17b)."""
        return IntelliNoCSystem(
            self.technique,
            seed=self.seed,
            faults=replace(self.faults, base_bit_error_rate=base_bit_error_rate),
            power=self.power,
            policy=self.policy,
            fault_injector=self.fault_injector,
            telemetry=self.telemetry,
            simprof=self.simprof,
        )
