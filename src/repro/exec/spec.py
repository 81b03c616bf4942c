"""Job layer: the frozen, content-addressed description of each job.

A :class:`CellSpec` captures *everything* that determines a simulation's
outcome — the full technique configuration (topology geometry included),
the workload generator parameters, the master seed, the fault model and
the RL pre-training budget.  Two specs with equal content hashes are
guaranteed to produce bit-identical :class:`~repro.metrics.summary.RunMetrics`
(simulations are pure functions of ``(config, trace, seed)``; see
``docs/architecture.md``), which is what makes the on-disk result cache
and cross-process execution sound.

An RL cell with a pre-training budget deploys the policy of a second kind
of job, its :attr:`CellSpec.pretraining` — a :class:`PretrainSpec`, keyed
the same way, whose artefact is the pre-trained master policy (Section
6.3: train once, deploy to every benchmark).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.config import (
    ControlPolicy,
    FaultConfig,
    TechniqueConfig,
    canonical_json,
    canonical_value,
)

#: Bumped whenever simulation semantics, or the canonical form itself,
#: change in a way that invalidates previously stored results (also
#: embedded in stored artifacts).  2: every dataclass field is hashed.
#: 3: ``RlConfig.reward_weights``.  4: the drop sweep releases every VC
#: a victim owns.
SPEC_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the trace generator feeding one cell.

    ``kind`` selects the generator: ``"parsec"`` (synthetic PARSEC profile,
    :func:`repro.traffic.parsec.generate_parsec_trace`) or ``"synthetic"``
    (classic patterns, :func:`repro.traffic.patterns.generate_synthetic_trace`).
    """

    kind: str
    name: str  # benchmark name or SyntheticPattern value
    duration: int
    packet_size: int = 4
    injection_rate: float = 0.0  # synthetic kinds only
    hotspots: tuple[int, ...] = ()  # synthetic hotspot pattern only

    def __post_init__(self) -> None:
        if self.kind not in ("parsec", "synthetic"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.duration < 1:
            raise ValueError("workload duration must be positive")


class _Keyed:
    """The content key every job type shares (the ``__type__`` tag of
    :func:`~repro.config.canonical_value` keeps the types apart)."""

    def canonical(self) -> dict[str, Any]:
        """Canonical JSON-safe structure covering every outcome-relevant field."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "spec": canonical_value(self),
        }

    def canonical_json(self) -> str:
        return canonical_json(self.canonical())

    def content_hash(self) -> str:
        """Stable sha256 over the canonical form; the cache key."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PretrainSpec(_Keyed):
    """The pre-training run whose trained master policy RL cells deploy:
    a pure function of exactly these four fields."""

    technique: TechniqueConfig
    seed: int
    faults: FaultConfig
    pretrain_cycles: int

    #: What kind of job this is, for progress consumers.
    job = "pretrain"

    @property
    def label(self) -> str:
        return f"{self.technique.name}/pretrain"


@dataclass(frozen=True)
class CellSpec(_Keyed):
    """One fully specified simulation cell of a campaign grid."""

    technique: TechniqueConfig
    workload: WorkloadSpec
    seed: int = 1
    faults: FaultConfig = field(default_factory=FaultConfig)
    pretrain_cycles: int = 0  # RL pre-training budget (0 = untrained agents)
    max_cycles: int | None = None  # simulation cap (None = duration-derived)

    job = "cell"

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines and logs."""
        return f"{self.technique.name}/{self.workload.name}"

    @property
    def pretraining(self) -> PretrainSpec | None:
        """The job whose policy this cell deploys, or None (untrained
        agents, or a technique without any)."""
        if self.technique.policy is not ControlPolicy.RL or self.pretrain_cycles <= 0:
            return None
        return PretrainSpec(
            self.technique, self.seed, self.faults, self.pretrain_cycles
        )


#: Anything the executor runs.
Job = CellSpec | PretrainSpec


def parsec_cell(
    technique: TechniqueConfig,
    benchmark: str,
    duration: int,
    seed: int = 1,
    faults: FaultConfig | None = None,
    pretrain_cycles: int = 0,
    max_cycles: int | None = None,
) -> CellSpec:
    """Spec for one (technique, PARSEC benchmark) campaign cell."""
    return CellSpec(
        technique=technique,
        workload=WorkloadSpec(
            kind="parsec",
            name=benchmark,
            duration=duration,
            packet_size=technique.noc.flits_per_packet,
        ),
        seed=seed,
        faults=faults if faults is not None else FaultConfig(),
        pretrain_cycles=pretrain_cycles,
        max_cycles=max_cycles,
    )


def synthetic_cell(
    technique: TechniqueConfig,
    pattern: str,
    duration: int,
    injection_rate: float,
    packet_size: int,
    seed: int = 1,
    faults: FaultConfig | None = None,
    hotspots: tuple[int, ...] = (),
    max_cycles: int | None = None,
) -> CellSpec:
    """Spec for one synthetic-pattern operating point: a load-latency curve
    is a list of these, one per injection rate."""
    return CellSpec(
        technique=technique,
        workload=WorkloadSpec(
            kind="synthetic",
            name=pattern,
            duration=duration,
            packet_size=packet_size,
            injection_rate=injection_rate,
            hotspots=tuple(hotspots),
        ),
        seed=seed,
        faults=faults if faults is not None else FaultConfig(),
        max_cycles=max_cycles,
    )
