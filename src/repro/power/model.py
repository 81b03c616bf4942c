"""Router/channel power model.

Dynamic energy is charged per micro-architectural event (buffer write/read,
crossbar traversal, link-stage traversal, codec activity, retransmission
control, bypass traversal, RL step).  Leakage is charged per cycle per
powered component.  Event energies and leakage densities live in
:class:`repro.config.PowerConfig`; this module knows how a *configuration*
(buffer organization, ECC state, gating state) maps onto those primitives.
"""

from __future__ import annotations

from repro.config import EccScheme, NocConfig, PowerConfig, TechniqueConfig

MW_PER_PJ_PER_CYCLE = 1.0  # 1 pJ per 0.5 ns cycle = 2 mW; handled explicitly


class PowerModel:
    """Maps configuration + runtime state to power numbers."""

    def __init__(self, technique: TechniqueConfig, power: PowerConfig):
        self.technique = technique
        self.power = power
        self.noc = technique.noc

    # --- leakage -----------------------------------------------------------

    def router_core_leakage_mw(self) -> float:
        """Leakage of one powered router, excluding ECC (buffers, crossbar,
        allocators).  The always-on BST is *not* included: it survives
        gating and is charged separately."""
        noc = self.noc
        p = self.power
        ports = 5
        slots = noc.total_router_buffer_flits * ports
        leak = slots * p.router_buffer_leak_mw
        # A second sub-network does not double the crossbar: Table 2 shows
        # EB's dual organization costs ~31% extra crossbar area.
        leak += p.crossbar_leak_mw * (1.0 + 0.35 * (noc.subnetworks - 1))
        leak += p.allocator_leak_mw
        return leak

    def bst_leakage_mw(self) -> float:
        """The unified Buffer State Table's separate, never-gated supply."""
        return self.power.bst_leak_mw

    def channel_leakage_mw(self) -> float:
        """Leakage of one router's worth of outgoing channel buffer stages."""
        noc = self.noc
        stages = noc.channel_buffer_depth * noc.channel_links * noc.subnetworks
        # 4 mesh directions own a channel; the local port is buffer-less.
        return 4 * stages * self.power.channel_buffer_leak_mw

    def ecc_leakage_mw(self, scheme: EccScheme) -> float:
        """Leakage of the ECC circuitry powered for *scheme* on one router."""
        p = self.power
        leak = p.crc_leak_mw
        if scheme is EccScheme.SECDED:
            leak += p.secded_leak_mw
        elif scheme is EccScheme.DECTED:
            leak += p.secded_leak_mw + p.dected_extra_leak_mw
        return leak

    def router_leakage_mw(self, powered: bool, scheme: EccScheme) -> float:
        """Total leakage attributable to one router this cycle."""
        leak = self.bst_leakage_mw() + self.channel_leakage_mw()
        if powered:
            leak += self.router_core_leakage_mw() + self.ecc_leakage_mw(scheme)
        elif self.technique.power_gating:
            # Sleep transistors and the gating controller keep burning while
            # the router core is dark.
            leak += self.power.gating_overhead_leak_mw
        return leak

    # --- dynamic events ----------------------------------------------------

    def buffer_energy_scale(self) -> float:
        """Per-access buffer energy scales with the port's slot count
        (bitline capacitance): ORION-style linear-in-slots reduction."""
        slots_per_port = self.noc.total_router_buffer_flits
        return 0.5 + 0.5 * (slots_per_port / 16.0)

    def hop_energy_pj(self, scheme: EccScheme, via_bypass: bool) -> float:
        """Dynamic energy of moving one flit through one router hop."""
        p = self.power
        if via_bypass:
            energy = p.bypass_traversal_pj
        else:
            scale = self.buffer_energy_scale()
            energy = (p.buffer_write_pj + p.buffer_read_pj) * scale + p.crossbar_pj
        if scheme.per_hop:
            energy += p.secded_codec_pj if scheme is EccScheme.SECDED else p.dected_codec_pj
        return energy

    def link_energy_pj(self, stages: int, held_cycles: int = 0) -> float:
        """Dynamic energy of one flit crossing a channel."""
        p = self.power
        return stages * p.link_stage_pj + held_cycles * p.channel_buffer_hold_pj

    def retransmission_energy_pj(self) -> float:
        return self.power.retransmission_overhead_pj

    def ejection_check_energy_pj(self) -> float:
        """Destination CRC check (always performed at ejection)."""
        return self.power.crc_check_pj

    def rl_step_energy_pj(self) -> float:
        """Q-table lookup + update energy per control step (Section 7.4)."""
        return self.power.rl_step_pj
