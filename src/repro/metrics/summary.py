"""The standard per-run metric bundle."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.metrics.energy import energy_delay_product, energy_efficiency
from repro.metrics.latency import LatencySummary
from repro.metrics.reliability import ReliabilitySummary


@dataclass(frozen=True)
class RunMetrics:
    """Everything one simulation run reports.

    Built from a finished :class:`repro.noc.network.Network` via
    :meth:`from_network`; every figure of Section 7 reads from here.  The
    record is its fields, every leaf a plain ``int``, ``float`` or ``str``:
    :meth:`to_dict` / :meth:`from_dict` serialise through them, so a new
    count is a field here plus one line in :meth:`from_network`, and a bump
    of ``repro.exec.store.STORE_SCHEMA_VERSION`` so that no stored record
    without it is served.
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
        data = asdict(self)
        # JSON keys are strings; from_dict restores the int mode ids.
        data["mode_breakdown"] = {str(m): v for m, v in self.mode_breakdown.items()}
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunMetrics":
        return cls(**{
            **data,
            "latency": LatencySummary(**data["latency"]),
            "reliability": ReliabilitySummary(**data["reliability"]),
            "mode_breakdown": {int(m): v for m, v in data["mode_breakdown"].items()},
        })

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
            # Plain floats: the HCI stress accrues numpy switching activity.
            mean_aging_factor=float(network.aging.mean_aging()),
            max_aging_factor=float(network.aging.max_aging()),
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
        return cls(
            technique=network.technique.name,
            workload=workload_name or network.trace.name,
            execution_cycles=cycles,
            packets_completed=stats.packets_completed,
            packets_injected=stats.packets_injected,
            # Percentiles and the maximum come from the latency reservoir;
            # the mean and the count are the run's exact totals.
            latency=(
                replace(
                    LatencySummary.from_samples(stats.latencies),
                    mean=stats.average_latency,
                    count=stats.latency_count,
                )
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
            qtable_entries_max=network.policy.max_table_entries(),
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
