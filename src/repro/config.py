"""Configuration dataclasses for the IntelliNoC reproduction.

The defaults mirror Table 1 of the paper:

* 64 cores, 8 x 8 2D mesh, X-Y routing, 4-stage routers
* 1.0 V, 2.0 GHz, 32 nm
* packets of 4 x 128-bit flits
* per-technique buffer organizations
  (4RB-4VC-0CB SECDED, 8CB x 2 subnets EB, 2RB-4VC-8CB CP/CPD/IntelliNoC)
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any


# --- deterministic fingerprinting -------------------------------------------
#
# The execution engine (`repro.exec`) keys its on-disk result cache by a
# content hash of everything that determines a run's outcome: technique,
# workload parameters, seed, fault model.  Canonicalization must therefore
# be *stable*: dict keys sorted, enums reduced to their values, tuples and
# lists unified, floats serialized by repr (shortest round-trip).  Every
# dataclass field is hashed, at its default or not, so a new field or a
# moved default changes the key instead of serving a result computed under
# the old one (`tests/exec/test_spec.py` holds that law field by field).


def canonical_value(obj: object) -> Any:
    """Reduce a config object to a canonical JSON-safe structure.

    Handles (recursively) dataclasses, enums, dicts, lists/tuples and JSON
    scalars.  The output is deterministic for equal inputs regardless of
    construction order.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: canonical_value(getattr(obj, f.name)) for f in fields(obj)}
        out["__type__"] = type(obj).__name__
        return out
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): canonical_value(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical_value(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def canonical_json(obj: object) -> str:
    """Canonical JSON text of :func:`canonical_value` (sorted, compact)."""
    return json.dumps(
        canonical_value(obj), sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def fingerprint(obj: object) -> str:
    """Stable sha256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class EccScheme(enum.Enum):
    """Error-control schemes the adaptive hardware can realize."""

    NONE = "none"
    CRC = "crc"  # end-to-end detection only
    SECDED = "secded"  # per-hop: correct 1, detect 2
    DECTED = "dected"  # per-hop: correct 2, detect 3

    @property
    def correct_bits(self) -> int:
        """Number of bit errors the scheme corrects per flit."""
        return {"none": 0, "crc": 0, "secded": 1, "dected": 2}[self.value]

    @property
    def detect_bits(self) -> int:
        """Number of bit errors the scheme is guaranteed to detect per flit."""
        return {"none": 0, "crc": 8, "secded": 2, "dected": 3}[self.value]

    @property
    def per_hop(self) -> bool:
        """Whether errors are handled hop-by-hop (vs end-to-end)."""
        return self in (EccScheme.SECDED, EccScheme.DECTED)


# The members, bound once for the simulator's functions: a module-level
# name costs a global load where ``EccScheme.CRC`` costs that plus a lookup
# through ``EnumType`` (see the note in `repro.noc.power_gating`).
ECC_NONE = EccScheme.NONE
ECC_CRC = EccScheme.CRC
ECC_SECDED = EccScheme.SECDED
ECC_DECTED = EccScheme.DECTED


class ControlPolicy(enum.Enum):
    """How a technique picks router operation modes at runtime."""

    STATIC = "static"  # fixed mode forever (baseline, EB)
    IDLE_GATING = "idle_gating"  # power-gate on idle detection (CP)
    HEURISTIC = "heuristic"  # ECC follows previous-epoch error level (CPD)
    RL = "rl"  # per-router Q-learning (IntelliNoC)


# The two members a simulator function names (`Router._adaptive`).
POLICY_HEURISTIC = ControlPolicy.HEURISTIC
POLICY_RL = ControlPolicy.RL


@dataclass(frozen=True)
class NocConfig:
    """Topology and router microarchitecture parameters (Table 1)."""

    width: int = 8
    height: int = 8
    num_vcs: int = 4
    router_buffer_depth: int = 4  # flits per VC ("RB")
    channel_buffer_depth: int = 0  # flits storable in the channel ("CB")
    channel_links: int = 1  # physical links per channel (MFAC has 2)
    flits_per_packet: int = 4
    flit_bits: int = 128
    pipeline_stages: int = 4  # BW/RC, VA, SA, ST
    link_latency: int = 1  # cycles per channel stage traversal
    subnetworks: int = 1  # EB uses 2
    routing: str = "xy"  # "xy" (Table 1) or "west_first" (adaptive)
    topology: str = "mesh"  # "mesh", "torus", "cmesh" or "ring"
    concentration: int = 1  # cores per router (cmesh: 2 or 4)
    # Named fault-scenario pack ("" = none).  The name is resolved against
    # the `repro.faults.scenario` registry at network build time (not here:
    # config must stay importable without the fault engine), so an unknown
    # name fails fast when the simulation is constructed.
    fault_scenario: str = ""

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("mesh must be at least 2x2")
        if self.num_vcs < 1:
            raise ValueError("need at least one VC")
        if self.flits_per_packet < 1:
            raise ValueError("packets need at least one flit")
        if self.pipeline_stages not in (3, 4):
            raise ValueError("only 3- and 4-stage router pipelines are modeled")
        if self.routing not in ("xy", "west_first"):
            raise ValueError("routing must be 'xy' or 'west_first'")
        if self.topology not in ("mesh", "torus", "cmesh", "ring"):
            raise ValueError(
                "topology must be one of 'mesh', 'torus', 'cmesh', 'ring'"
            )
        if self.topology == "cmesh":
            if self.concentration not in (2, 4):
                raise ValueError("cmesh concentration must be 2 or 4")
            tile_w, tile_h = (2, 1) if self.concentration == 2 else (2, 2)
            if self.width % tile_w or self.height % tile_h:
                raise ValueError(
                    f"cmesh c={self.concentration} needs node grid divisible "
                    f"by {tile_w}x{tile_h} tiles"
                )
        elif self.concentration != 1:
            raise ValueError("concentration > 1 requires topology 'cmesh'")
        if self.topology in ("torus", "ring"):
            if self.routing != "xy":
                raise ValueError(
                    f"{self.topology} supports only the dimension-ordered "
                    "'xy' routing family"
                )
            if self.num_vcs < 2:
                raise ValueError(
                    "dateline (VC-class) routing needs at least 2 VCs per port"
                )

    @property
    def num_nodes(self) -> int:
        """Cores / traffic endpoints — always the full node grid."""
        return self.width * self.height

    @property
    def num_routers(self) -> int:
        if self.topology == "cmesh":
            return (self.width * self.height) // self.concentration
        return self.width * self.height

    @property
    def total_router_buffer_flits(self) -> int:
        """Router buffer capacity per input port, in flits."""
        return self.num_vcs * self.router_buffer_depth


@dataclass(frozen=True)
class FaultConfig:
    """Transient-fault and aging model parameters (Section 6)."""

    # Accelerated fault injection: simulated windows are far shorter than
    # the paper's full-application runs, so the nominal per-bit rate is
    # scaled up to keep fault counts statistically meaningful (the Fig. 17b
    # sweep covers the paper's 1e-10..1e-7 range via `base_bit_error_rate`).
    base_bit_error_rate: float = 4e-6  # Re at the reference temperature
    error_rate_temp_coeff: float = 0.15  # exponential growth per Kelvin
    reference_temperature: float = 345.0  # K at which Re equals the base rate
    relaxed_error_factor: float = 1e-3  # Re multiplier under relaxed timing
    # Timing faults hit wide datapaths: a faulty flit carries a multi-bit
    # burst with this probability (motivates DECTED/relaxed modes; cf. the
    # paper's multi-bit fault-coding references [28, 29]).
    multi_bit_fraction: float = 0.35
    burst_extra_bits_mean: float = 1.6  # mean extra flips in a burst
    supply_voltage: float = 1.0  # V (Table 1)
    nominal_vth: float = 0.3  # V, threshold voltage at time zero
    vth_failure_fraction: float = 0.10  # permanent fault at >10% Vth shift
    ambient_temperature: float = 318.0  # K (45C package ambient)
    thermal_resistance: float = 2.0e3  # K/W per router node (lumped)
    # Accelerated RC constant: silicon constants are ms-scale, but simulated
    # windows are far shorter than the full application runs the paper uses,
    # so thermal dynamics are sped up proportionally (documented in DESIGN.md).
    thermal_time_constant: float = 2.5e-6  # s (~5000 cycles at 2 GHz)
    thermal_coupling: float = 0.12  # lateral neighbor coupling weight

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_bit_error_rate < 1.0:
            raise ValueError("bit error rate must be a probability")
        if self.vth_failure_fraction <= 0:
            raise ValueError("failure fraction must be positive")


@dataclass(frozen=True)
class PowerConfig:
    """Energy-per-event and leakage parameters (ORION-style, 32 nm, 2 GHz).

    Values are in picojoules per event and milliwatts of leakage per
    component instance.  Absolute magnitudes are representative of 32 nm
    published numbers; the evaluation only uses ratios between techniques.
    """

    # Dynamic energy per flit event (pJ)
    buffer_write_pj: float = 1.8
    buffer_read_pj: float = 1.4
    crossbar_pj: float = 2.4
    link_stage_pj: float = 0.9  # per channel stage traversed
    channel_buffer_hold_pj: float = 0.25  # per cycle a flit is held on-link
    crc_check_pj: float = 0.35
    secded_codec_pj: float = 1.6  # encode+decode per hop
    dected_codec_pj: float = 2.9
    retransmission_overhead_pj: float = 0.6  # NACK/control per retransmit
    bypass_traversal_pj: float = 2.2  # MUX/DEMUX + latch path, no crossbar/buffers
    rl_step_pj: float = 0.16  # per control step, Section 7.4

    # Leakage (mW per instance)
    router_buffer_leak_mw: float = 0.05  # per buffer slot
    crossbar_leak_mw: float = 2.6
    allocator_leak_mw: float = 1.0  # VA+SA logic
    channel_buffer_leak_mw: float = 0.021  # per channel buffer stage
    secded_leak_mw: float = 0.6  # SECDED encode/decode hardware
    dected_extra_leak_mw: float = 0.35  # additional DECTED circuitry
    crc_leak_mw: float = 0.05
    bst_leak_mw: float = 0.17  # always-on unified BST
    gating_overhead_leak_mw: float = 0.9  # sleep transistors + PG controller
    clock_frequency_hz: float = 2.0e9


@dataclass(frozen=True)
class RlConfig:
    """Q-learning hyperparameters (Sections 5-6.3)."""

    learning_rate: float = 0.1
    discount: float = 0.9
    epsilon: float = 0.05
    time_step: int = 1000  # cycles per control epoch
    num_bins: int = 5  # discretization bins per feature
    initial_mode: int = 1  # all routers start in mode 1 (Section 6.3)
    max_table_entries: int = 350  # hardware Q-table budget (Section 7.4)
    #: Eq. 1's term weights (latency, power, aging); the paper's reward is
    #: (1, 1, 1), and a 0 drops a term (the reward ablation).
    reward_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning rate must lie in (0, 1]")
        if self.time_step < 1:
            raise ValueError("time step must be at least one cycle")
        try:
            weights = tuple(float(w) for w in self.reward_weights)
        except (TypeError, ValueError):
            weights = ()
        if len(weights) != 3 or not all(math.isfinite(w) and w >= 0.0 for w in weights):
            raise ValueError(
                "reward weights are three finite, non-negative numbers "
                "(latency, power, aging)"
            )
        # Stored as a tuple of floats whatever came in: a policy artefact's
        # JSON hands the field back as a list, which would not hash.
        object.__setattr__(self, "reward_weights", weights)


@dataclass(frozen=True)
class TechniqueConfig:
    """A complete technique under evaluation = NoC organization + policy.

    The five techniques of Section 7 are exposed as the module-level
    constants ``SECDED_BASELINE``, ``EB``, ``CP``, ``CPD`` and
    ``INTELLINOC`` (see :func:`technique`).
    """

    name: str
    noc: NocConfig
    policy: ControlPolicy
    static_ecc: EccScheme = EccScheme.SECDED
    uses_mfac: bool = False  # multi-function adaptive channels
    uses_bypass: bool = False  # stress-relaxing bypass under gating
    power_gating: bool = False
    wakeup_latency: int = 8  # cycles to un-gate a router (CP pays this)
    idle_gate_threshold: int = 24  # idle cycles before gating a router
    rl: RlConfig = field(default_factory=RlConfig)

    def with_rl(self, **kwargs: Any) -> "TechniqueConfig":
        """Return a copy with updated RL hyperparameters."""
        return replace(self, rl=replace(self.rl, **kwargs))


# --- Table 1 buffer organizations ------------------------------------------

_BASELINE_NOC = NocConfig(
    router_buffer_depth=4, channel_buffer_depth=0, channel_links=1, pipeline_stages=4
)
# EB replaces router buffers with elastic channel FIFOs; the two
# sub-networks are modeled as two single-latch VCs over doubled channel
# resources (one per subnet), with the VA stage eliminated (Section 7.1).
_EB_NOC = NocConfig(
    router_buffer_depth=1,
    num_vcs=4,
    channel_buffer_depth=8,
    channel_links=1,
    pipeline_stages=3,
    subnetworks=2,
)
_CHANNEL_NOC = NocConfig(
    router_buffer_depth=2, channel_buffer_depth=8, channel_links=2, pipeline_stages=4
)

SECDED_BASELINE = TechniqueConfig(
    name="SECDED",
    noc=_BASELINE_NOC,
    policy=ControlPolicy.STATIC,
    static_ecc=EccScheme.SECDED,
)

EB = TechniqueConfig(
    name="EB",
    noc=_EB_NOC,
    policy=ControlPolicy.STATIC,
    static_ecc=EccScheme.SECDED,
)

CP = TechniqueConfig(
    name="CP",
    noc=_CHANNEL_NOC,
    policy=ControlPolicy.IDLE_GATING,
    static_ecc=EccScheme.SECDED,
    power_gating=True,
)

CPD = TechniqueConfig(
    name="CPD",
    noc=_CHANNEL_NOC,
    policy=ControlPolicy.HEURISTIC,
    static_ecc=EccScheme.SECDED,
    power_gating=True,
)

INTELLINOC = TechniqueConfig(
    name="IntelliNoC",
    noc=_CHANNEL_NOC,
    policy=ControlPolicy.RL,
    static_ecc=EccScheme.SECDED,
    uses_mfac=True,
    uses_bypass=True,
    power_gating=True,
)

_TECHNIQUES = {
    t.name.lower(): t for t in (SECDED_BASELINE, EB, CP, CPD, INTELLINOC)
}


def technique(name: str) -> TechniqueConfig:
    """Look up one of the paper's five techniques by (case-insensitive) name."""
    try:
        return _TECHNIQUES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown technique {name!r}; choose from {sorted(_TECHNIQUES)}"
        ) from None


def all_techniques() -> list[TechniqueConfig]:
    """The five techniques of Section 7, in the paper's plotting order."""
    return [SECDED_BASELINE, EB, CP, CPD, INTELLINOC]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation."""

    technique: TechniqueConfig = field(default_factory=lambda: SECDED_BASELINE)
    faults: FaultConfig = field(default_factory=FaultConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    seed: int = 1
    stats_epoch: int = 100  # cycles between thermal/stat updates

    @property
    def noc(self) -> NocConfig:
        return self.technique.noc
