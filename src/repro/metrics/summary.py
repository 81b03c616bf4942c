"""The standard per-run metric bundle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.metrics.energy import energy_delay_product, energy_efficiency
from repro.metrics.latency import LatencySummary
from repro.metrics.reliability import ReliabilitySummary


@dataclass(frozen=True)
class RunMetrics:
    """Everything one simulation run reports.

    Built from a finished :class:`repro.noc.network.Network` via
    :meth:`from_network`; every figure of Section 7 reads from here.
    """

    technique: str
    workload: str
    execution_cycles: int
    packets_completed: int
    latency: LatencySummary
    static_power_w: float
    dynamic_power_w: float
    total_energy_j: float
    reliability: ReliabilitySummary
    mode_breakdown: dict[int, float] = field(default_factory=dict)
    mean_temperature_k: float = 0.0
    max_temperature_k: float = 0.0
    qtable_entries_max: int = 0
    packets_injected: int = 0

    @property
    def total_power_w(self) -> float:
        return self.static_power_w + self.dynamic_power_w

    @property
    def execution_seconds(self) -> float:
        # Metrics are normalized ratios; the 2 GHz clock of Table 1 applies.
        return self.execution_cycles / 2.0e9

    @property
    def energy_efficiency(self) -> float:
        """Eq. 8."""
        return energy_efficiency(
            self.static_power_w, self.dynamic_power_w, self.execution_seconds
        )

    @property
    def energy_delay_product(self) -> float:
        return energy_delay_product(self.total_energy_j, self.execution_seconds)

    # --- serialization (result-store schema) --------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, round-tripped exactly by :meth:`from_dict`.

        Used both as the result-cache artifact schema and as the transport
        between executor worker processes and the engine, so serial and
        parallel campaigns yield byte-identical results.
        """
        return {
            "technique": self.technique,
            "workload": self.workload,
            "execution_cycles": self.execution_cycles,
            "packets_completed": self.packets_completed,
            "packets_injected": self.packets_injected,
            "latency": self.latency.to_dict(),
            "static_power_w": self.static_power_w,
            "dynamic_power_w": self.dynamic_power_w,
            "total_energy_j": self.total_energy_j,
            "reliability": self.reliability.to_dict(),
            # JSON keys are strings; from_dict restores the int mode ids.
            "mode_breakdown": {str(m): v for m, v in self.mode_breakdown.items()},
            "mean_temperature_k": self.mean_temperature_k,
            "max_temperature_k": self.max_temperature_k,
            "qtable_entries_max": self.qtable_entries_max,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunMetrics":
        return cls(
            technique=str(data["technique"]),
            workload=str(data["workload"]),
            execution_cycles=int(data["execution_cycles"]),
            packets_completed=int(data["packets_completed"]),
            packets_injected=int(data.get("packets_injected", 0)),
            latency=LatencySummary.from_dict(data["latency"]),
            static_power_w=float(data["static_power_w"]),
            dynamic_power_w=float(data["dynamic_power_w"]),
            total_energy_j=float(data["total_energy_j"]),
            reliability=ReliabilitySummary.from_dict(data["reliability"]),
            mode_breakdown={
                int(m): float(v) for m, v in data.get("mode_breakdown", {}).items()
            },
            mean_temperature_k=float(data["mean_temperature_k"]),
            max_temperature_k=float(data["max_temperature_k"]),
            qtable_entries_max=int(data["qtable_entries_max"]),
        )

    @classmethod
    def from_network(
        cls, network: Any, workload_name: str | None = None
    ) -> "RunMetrics":
        """Summarize a finished simulation."""
        from repro.faults.mttf import MttfEstimator  # avoid import cycle

        stats = network.stats
        cycles = max(1, network.cycle)
        static_w, dynamic_w = network.accountant.average_power_w(cycles)
        mttf = MttfEstimator(network.aging)
        # Fault-scenario delivery accounting: availability weighs each dead
        # router by the fraction of the run it spent dead.
        dead_routers = network.dead_routers
        lost_router_cycles = sum(cycles - killed for killed in dead_routers.values())
        availability = 1.0 - lost_router_cycles / (
            network.topology.num_routers * cycles
        )
        recovery = stats.recovery_cycles
        reliability = ReliabilitySummary(
            hop_retransmissions=stats.hop_retransmissions,
            e2e_retransmission_flits=stats.e2e_retransmission_flits,
            corrected_flits=stats.corrected_flits,
            silent_corruptions=stats.silent_corruptions,
            corrupted_packets_delivered=stats.corrupted_packets_delivered,
            flits_delivered=stats.flits_delivered,
            mttf_seconds=mttf.system_mttf_seconds(),
            mean_aging_factor=network.aging.mean_aging(),
            max_aging_factor=network.aging.max_aging(),
            packets_dropped_dead_router=stats.packets_dropped_dead_router,
            packets_dropped_dead_link=stats.packets_dropped_dead_link,
            packets_undeliverable=stats.packets_undeliverable,
            delivery_ratio=stats.delivery_ratio,
            availability=availability,
            time_to_recover_cycles=(
                sum(recovery) / len(recovery) if recovery else 0.0
            ),
            routers_failed=len(dead_routers),
            links_failed=len(network.dead_links),
        )
        qtable_max = 0
        policy = network.policy
        if hasattr(policy, "max_table_entries"):
            qtable_max = policy.max_table_entries()
        return cls(
            technique=network.technique.name,
            workload=workload_name or network.trace.name,
            execution_cycles=cycles,
            packets_completed=stats.packets_completed,
            packets_injected=stats.packets_injected,
            latency=(
                LatencySummary.from_samples(stats.latencies)
                if stats.latencies
                else LatencySummary.empty()
            ),
            static_power_w=static_w,
            dynamic_power_w=dynamic_w,
            total_energy_j=network.accountant.total_pj() * 1e-12,
            reliability=reliability,
            mode_breakdown=stats.mode_breakdown(),
            mean_temperature_k=network.thermal.mean_temperature(),
            max_temperature_k=network.thermal.hottest()[1],
            qtable_entries_max=qtable_max,
        )


def run_to_metrics(network: Any, max_cycles: int | None = None) -> RunMetrics:
    """Run *network* until its trace completes, then summarize the run.

    The one home of the default cycle cap: four times the trace's length
    plus a 50 000-cycle drain allowance, beyond which a run that has not
    resolved every packet is summarized as it stands.
    """
    cap = (
        max_cycles
        if max_cycles is not None
        else network.trace.duration * 4 + 50_000
    )
    network.run_to_completion(cap)
    network.finalize_telemetry()
    return RunMetrics.from_network(network)
