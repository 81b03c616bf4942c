"""Figure renderers: pure functions over stored campaign results.

Every renderer consumes only ``results`` — a ``{(technique_name,
benchmark): RunMetrics}`` mapping, exactly what the execution engine
returns (or what a result-store artifact decodes to) — and produces the
paper-style table plus the per-technique averages.  No simulation ever
happens here, so figures can be re-rendered from cached artifacts alone.
Every cell of the grid is present: a campaign with a failed cell stops
before any figure renders.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.config import OPERATION_MODES
from repro.metrics.summary import RunMetrics
from repro.utils.tables import format_table, geometric_mean, normalize_map

Results = dict[tuple[str, str], RunMetrics]


def metric_table(
    results: Results,
    technique_names: Sequence[str],
    benchmarks: Sequence[str],
    title: str,
    metric: Callable[[RunMetrics], float],
    invert: bool = False,
    baseline: str = "SECDED",
) -> tuple[str, dict[str, float]]:
    """Per-benchmark normalized metric table plus technique averages."""
    rows = []
    averages: dict[str, list[float]] = {name: [] for name in technique_names}
    for benchmark in benchmarks:
        raw = {
            name: metric(results[(name, benchmark)]) for name in technique_names
        }
        normalized = normalize_map(raw, baseline, invert=invert)
        rows.append([benchmark] + [normalized[name] for name in technique_names])
        for name, value in normalized.items():
            averages[name].append(value)
    avg_row = ["average"] + [
        geometric_mean(averages[name]) for name in technique_names
    ]
    rows.append(avg_row)
    headers = ["benchmark"] + list(technique_names)
    table = format_table(headers, rows, title=title)
    return table, {
        name: avg_row[1 + i] for i, name in enumerate(technique_names)
    }


def figure9_speedup(results, technique_names, benchmarks):
    """Fig. 9: execution-time speed-up vs SECDED (higher is better)."""
    return metric_table(
        results, technique_names, benchmarks,
        "Fig. 9 - Speed-up of execution time (normalized to SECDED)",
        lambda m: m.execution_cycles,
        invert=True,
    )


def figure10_latency(results, technique_names, benchmarks):
    """Fig. 10: average end-to-end latency (lower is better)."""
    return metric_table(
        results, technique_names, benchmarks,
        "Fig. 10 - Average end-to-end latency (normalized)",
        lambda m: m.latency.mean,
    )


def figure11_static_power(results, technique_names, benchmarks):
    return metric_table(
        results, technique_names, benchmarks,
        "Fig. 11 - Static power consumption (normalized)",
        lambda m: m.static_power_w,
    )


def figure12_dynamic_power(results, technique_names, benchmarks):
    return metric_table(
        results, technique_names, benchmarks,
        "Fig. 12 - Dynamic power consumption (normalized)",
        lambda m: m.dynamic_power_w,
    )


def figure13_energy_efficiency(results, technique_names, benchmarks):
    return metric_table(
        results, technique_names, benchmarks,
        "Fig. 13 - Energy-efficiency (normalized, higher is better)",
        lambda m: m.energy_efficiency,
    )


def reliability_table(
    results: Results,
    technique_names: Sequence[str],
    benchmarks: Sequence[str],
) -> str:
    """Delivery accounting per technique (absolute values, suite-wide).

    Unlike the paper figures this is not normalized: delivery ratio and
    availability are already ratios, and drop counts are evidence, not a
    comparison metric.  On clean runs every row reads 1.0 / 0 / 0 / 1.0.
    """
    rows = []
    for name in technique_names:
        rel = [results[(name, b)].reliability for b in benchmarks]
        recoveries = [
            r.time_to_recover_cycles for r in rel if r.time_to_recover_cycles
        ]
        rows.append([
            name,
            sum(r.delivery_ratio for r in rel) / len(rel),
            sum(r.packets_dropped for r in rel),
            sum(r.packets_undeliverable for r in rel),
            sum(r.availability for r in rel) / len(rel),
            sum(recoveries) / len(recoveries) if recoveries else 0.0,
        ])
    headers = [
        "technique", "delivery ratio", "dropped", "refused",
        "availability", "time-to-recover (cycles)",
    ]
    return format_table(
        headers, rows, title="Delivery accounting under fault scenarios"
    )


def figure14_mode_breakdown(
    results: Results,
    benchmarks: Sequence[str],
    technique_name: str = "IntelliNoC",
) -> tuple[str, dict[int, float]]:
    """Fig. 14: IntelliNoC operation-mode occupancy per benchmark."""
    modes = range(len(OPERATION_MODES))
    rows = []
    for benchmark in benchmarks:
        breakdown = results[(technique_name, benchmark)].mode_breakdown
        rows.append([benchmark] + [breakdown.get(mode, 0.0) for mode in modes])
    headers = ["benchmark"] + [f"mode {m}" for m in modes]
    table = format_table(headers, rows, title="Fig. 14 - Operation mode breakdown")
    avg = {m: sum(r[1 + m] for r in rows) / len(rows) for m in modes}
    return table, avg


def figure15_retransmissions(results, technique_names, benchmarks):
    return metric_table(
        results, technique_names, benchmarks,
        "Fig. 15 - Number of re-transmission flits (normalized)",
        lambda m: max(1, m.reliability.total_retransmitted_flits),
    )


def figure16_mttf(results, technique_names, benchmarks):
    return metric_table(
        results, technique_names, benchmarks,
        "Fig. 16 - Mean-time-to-failure (normalized, higher is better)",
        lambda m: m.reliability.mttf_seconds,
    )


def _mode_shares(results, technique_names, benchmarks):
    """Fig. 14 in the common signature, its shares named as the paper
    table names them."""
    table, shares = figure14_mode_breakdown(results, benchmarks)
    return table, {f"mode {mode}": share for mode, share in shares.items()}


#: Figs. 9-16, every figure over the (technique x benchmark) suite, under
#: the names :mod:`repro.report.paper_table` gives them:
#: ``render(results, technique_names, benchmarks) -> (table, values)``.
SUITE_FIGURES = {
    "fig09_speedup": figure9_speedup,
    "fig10_latency": figure10_latency,
    "fig11_static_power": figure11_static_power,
    "fig12_dynamic_power": figure12_dynamic_power,
    "fig13_energy_efficiency": figure13_energy_efficiency,
    "fig14_mode_breakdown": _mode_shares,
    "fig15_retransmissions": figure15_retransmissions,
    "fig16_mttf": figure16_mttf,
}
