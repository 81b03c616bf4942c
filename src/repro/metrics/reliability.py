"""Reliability summaries (Section 7.2)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReliabilitySummary:
    """Transient- and permanent-fault outcomes of one run."""

    hop_retransmissions: int
    e2e_retransmission_flits: int
    corrected_flits: int
    silent_corruptions: int
    corrupted_packets_delivered: int
    flits_delivered: int
    mttf_seconds: float
    mean_aging_factor: float
    max_aging_factor: float
    # Fault-scenario delivery accounting; the defaults are a clean run.
    packets_dropped_dead_router: int = 0
    packets_dropped_dead_link: int = 0
    packets_undeliverable: int = 0
    delivery_ratio: float = 1.0  # completed / injected
    availability: float = 1.0  # 1 - dead-router-cycles / router-cycles
    time_to_recover_cycles: float = 0.0  # mean kill-to-next-delivery gap
    routers_failed: int = 0
    links_failed: int = 0

    @property
    def total_retransmitted_flits(self) -> int:
        """Fig. 15's metric."""
        return self.hop_retransmissions + self.e2e_retransmission_flits

    @property
    def retransmission_rate(self) -> float:
        """Retransmitted flits per delivered flit (Fig. 18's second axis)."""
        if self.flits_delivered == 0:
            return 0.0
        return self.total_retransmitted_flits / self.flits_delivered

    @property
    def packets_dropped(self) -> int:
        """Packets lost to dead fabric elements (excludes refusals)."""
        return self.packets_dropped_dead_router + self.packets_dropped_dead_link
