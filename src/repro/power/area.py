"""Area model reproducing Table 2 of the paper (32 nm, 1.0 V, 2 GHz).

The paper reports per-component areas from Synopsys Design Vision.  Two
facts shape this module:

1. The published component rows of Table 2 do **not** recompose linearly
   into the published totals under any single per-unit interpretation (the
   totals evidently include uncounted control/wiring that differs per
   design).  We therefore keep the published rows verbatim
   (:data:`PAPER_TABLE2`) and calibrate one residual "control & other
   logic" term per technique so published totals are reproduced exactly.
2. For configurations *other* than the paper's four, the model composes
   areas from unit constants (buffer slot, crossbar, channel stage,
   ECC blocks, Q-table) and reuses the baseline residual — good enough for
   ablation-style what-ifs.

All areas in square micrometres.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TechniqueConfig, all_techniques
from repro.utils.tables import format_table

# Published Table 2, verbatim (µm^2). CPD shares the CP row set in the paper.
PAPER_TABLE2: dict[str, dict[str, float]] = {
    "SECDED": {
        "router_buffer": 1248.3,
        "buffer_slots_per_port": 16,
        "crossbar": 9004.7,
        "channel": 136.7,
        "ecc": 3325.4,
        "total": 119807.0,
    },
    "EB": {
        "router_buffer": 0.0,
        "buffer_slots_per_port": 0,
        "crossbar": 11774.6,
        "channel": 5790.4,
        "ecc": 3325.4,
        "total": 80612.6,
    },
    "CP": {
        "router_buffer": 1248.3,
        "buffer_slots_per_port": 8,
        "crossbar": 9004.7,
        "channel": 2734.4,
        "ecc": 3325.4,
        "total": 83953.1,
    },
    "IntelliNoC": {
        "router_buffer": 1248.3,
        "buffer_slots_per_port": 8,
        "crossbar": 9004.7,
        "channel": 2869.6,
        "ecc": 3940.3,
        "total": 89313.7,
    },
}
PAPER_TABLE2["CPD"] = PAPER_TABLE2["CP"]

# Unit areas for compositional estimates of non-tabulated configurations.
BUFFER_SLOT_AREA = 1248.3  # per slot (the paper's buffer row unit)
CROSSBAR_AREA = 9004.7
CROSSBAR_AREA_EB = 11774.6  # dual-subnetwork organization
PLAIN_CHANNEL_AREA = 136.7  # repeated wire only
CHANNEL_STAGE_AREA = (2734.4 - 136.7) / 8  # per channel buffer stage
MFAC_CONTROLLER_AREA = 2869.6 - 2734.4  # function-select control (per router)
ECC_STATIC_AREA = 3325.4  # CRC + SECDED hardware
ECC_ADAPTIVE_EXTRA = 3940.3 - 3325.4  # DECTED extension + mode control
QTABLE_FRACTION = 0.04  # Q-table consumes 4% of router area (Section 7.4)


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-router area decomposition, mirroring Table 2's rows."""

    router_buffer: float
    crossbar: float
    channel: float
    ecc: float
    control_other: float
    qtable: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.router_buffer
            + self.crossbar
            + self.channel
            + self.ecc
            + self.control_other
            + self.qtable
        )


def _components(technique: TechniqueConfig) -> tuple[float, float, float, float, float]:
    """Compositional (buffers, crossbar, channel, ecc, qtable) estimate."""
    noc = technique.noc
    # The paper's buffer row is per buffer organization; scale it linearly
    # in slots/port against the baseline's 16 slots/port.
    buffers = BUFFER_SLOT_AREA * (noc.total_router_buffer_flits / 16.0)
    crossbar = CROSSBAR_AREA_EB if noc.subnetworks > 1 else CROSSBAR_AREA
    stages = noc.channel_buffer_depth * noc.subnetworks
    channel = PLAIN_CHANNEL_AREA + CHANNEL_STAGE_AREA * stages * (
        2.0 if noc.subnetworks > 1 else 1.0
    )
    if technique.uses_mfac:
        channel += MFAC_CONTROLLER_AREA
    ecc = ECC_STATIC_AREA
    from repro.config import ControlPolicy

    if technique.policy in (ControlPolicy.HEURISTIC, ControlPolicy.RL):
        ecc += ECC_ADAPTIVE_EXTRA
    qtable = 0.0
    if technique.policy is ControlPolicy.RL:
        base = buffers + crossbar + channel + ecc
        qtable = QTABLE_FRACTION * base
    return buffers, crossbar, channel, ecc, qtable


class AreaModel:
    """Area estimates per technique; exact for the paper's four designs."""

    def breakdown(self, technique: TechniqueConfig) -> AreaBreakdown:
        """Area decomposition of one router under *technique*.

        For the paper's named techniques the published rows and total are
        reproduced exactly (the residual absorbs uncounted control logic);
        for other configurations the residual falls back to the baseline's.
        """
        buffers, crossbar, channel, ecc, qtable = _components(technique)
        published = PAPER_TABLE2.get(technique.name)
        if published is not None:
            buffers = published["router_buffer"] * (
                published["buffer_slots_per_port"] / 16.0
            )
            crossbar = published["crossbar"]
            channel = published["channel"]
            ecc = published["ecc"]
            residual = published["total"] - (buffers + crossbar + channel + ecc)
            qtable = 0.0  # folded into the published total's residual
            return AreaBreakdown(buffers, crossbar, channel, ecc, residual, qtable)
        baseline = PAPER_TABLE2["SECDED"]
        residual = baseline["total"] - (
            baseline["router_buffer"]
            + baseline["crossbar"]
            + baseline["channel"]
            + baseline["ecc"]
        )
        return AreaBreakdown(buffers, crossbar, channel, ecc, residual, qtable)

    def total(self, technique: TechniqueConfig) -> float:
        return self.breakdown(technique).total

    def percent_change_vs_baseline(self, technique: TechniqueConfig) -> float:
        """Table 2's "%Change" row: area delta vs the SECDED baseline."""
        base = PAPER_TABLE2["SECDED"]["total"]
        return (self.total(technique) - base) / base * 100.0


def area_table() -> tuple[str, dict[str, float]]:
    """Table 2 as text, and each technique's %change vs the baseline."""
    model = AreaModel()
    rows = []
    for technique in all_techniques():
        b = model.breakdown(technique)
        rows.append([
            technique.name, b.router_buffer, b.crossbar, b.channel, b.ecc,
            b.control_other, b.total,
            model.percent_change_vs_baseline(technique),
        ])
    table = format_table(
        ["technique", "router buffer", "crossbar", "channel", "ECC",
         "control/other", "total", "%change"],
        rows,
        title="Table 2 - Area overhead comparison (um^2)",
        float_fmt="{:.1f}",
    )
    return table, {row[0]: row[-1] for row in rows}
