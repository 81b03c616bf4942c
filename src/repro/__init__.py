"""IntelliNoC reproduction (ISCA 2019).

A from-scratch Python implementation of *IntelliNoC: A Holistic Design
Framework for Energy-Efficient and Reliable On-Chip Communication for
Manycores* (Wang, Louri, Karanth, Bunescu), including the cycle-level NoC
substrate, MFAC channels, adaptive ECC, stress-relaxing bypass, fault /
thermal / aging models, and the per-router Q-learning control policy,
plus the four comparison techniques (SECDED baseline, EB, CP, CPD).

Quickstart: one cell of the paper's grid, its RL agents pre-trained
first (the engine runs the pre-training job, then the cell)::

    from repro import INTELLINOC, parsec_cell
    from repro.exec import EngineOptions

    spec = parsec_cell(INTELLINOC, "bod", 8000, seed=42, pretrain_cycles=20_000)
    metrics = EngineOptions().run_specs([spec]).metrics[0]
    print(metrics.latency, metrics.energy_efficiency)
"""

from repro.config import (
    CP,
    CPD,
    EB,
    INTELLINOC,
    SECDED_BASELINE,
    ControlPolicy,
    EccScheme,
    FaultConfig,
    NocConfig,
    PowerConfig,
    RlConfig,
    SimulationConfig,
    TechniqueConfig,
    all_techniques,
    technique,
)
from repro.core.experiment import ExperimentRunner
from repro.core.intellinoc import pretrain_agents
from repro.exec import (
    CampaignEngine,
    CampaignReport,
    CellExecutor,
    CellSpec,
    ResultStore,
    WorkloadSpec,
    parsec_cell,
    synthetic_cell,
)
from repro.metrics.summary import RunMetrics
from repro.noc.network import Network
from repro.traffic.parsec import PARSEC_BENCHMARKS, PARSEC_PROFILES, generate_parsec_trace
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.traffic.trace import Trace, TraceEvent

__version__ = "1.0.0"

__all__ = [
    "CP",
    "CPD",
    "CampaignEngine",
    "CampaignReport",
    "CellExecutor",
    "CellSpec",
    "EB",
    "INTELLINOC",
    "SECDED_BASELINE",
    "ControlPolicy",
    "EccScheme",
    "ExperimentRunner",
    "ResultStore",
    "WorkloadSpec",
    "FaultConfig",
    "Network",
    "NocConfig",
    "PARSEC_BENCHMARKS",
    "PARSEC_PROFILES",
    "PowerConfig",
    "RlConfig",
    "RunMetrics",
    "SimulationConfig",
    "SyntheticPattern",
    "TechniqueConfig",
    "Trace",
    "TraceEvent",
    "all_techniques",
    "generate_parsec_trace",
    "generate_synthetic_trace",
    "parsec_cell",
    "pretrain_agents",
    "synthetic_cell",
    "technique",
]
