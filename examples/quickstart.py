"""Quickstart: run one PARSEC-profile workload on IntelliNoC vs the baseline.

Usage::

    python examples/quickstart.py [benchmark] [duration_cycles]

Runs two cells of one benchmark, hence one generated trace: the SECDED
baseline and the full IntelliNoC design (MFACs + adaptive ECC +
stress-relaxing bypass + per-router Q-learning), whose RL agents the
engine pre-trains first; prints paper-style normalized metrics.
"""

import sys

from repro import INTELLINOC, SECDED_BASELINE, parsec_cell
from repro.exec import EngineOptions
from repro.utils.tables import format_table


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "bod"
    duration = int(sys.argv[2]) if len(sys.argv) > 2 else 6000
    seed = 42

    print(f"Workload: {benchmark} profile, {duration} cycles, 8x8 mesh")
    print("Pre-training IntelliNoC's RL agents on blackscholes ...")
    base, ours = EngineOptions().run_specs([
        parsec_cell(SECDED_BASELINE, benchmark, duration, seed=seed),
        parsec_cell(
            INTELLINOC, benchmark, duration, seed=seed, pretrain_cycles=30_000
        ),
    ]).metrics

    rows = [
        ["execution cycles", base.execution_cycles, ours.execution_cycles,
         base.execution_cycles / ours.execution_cycles],
        ["avg packet latency", base.latency.mean, ours.latency.mean,
         base.latency.mean / ours.latency.mean],
        ["static power (W)", base.static_power_w, ours.static_power_w,
         base.static_power_w / ours.static_power_w],
        ["dynamic power (W)", base.dynamic_power_w, ours.dynamic_power_w,
         base.dynamic_power_w / ours.dynamic_power_w],
        ["energy efficiency (1/J)", base.energy_efficiency, ours.energy_efficiency,
         ours.energy_efficiency / base.energy_efficiency],
        ["retransmitted flits", base.reliability.total_retransmitted_flits,
         ours.reliability.total_retransmitted_flits, float("nan")],
        ["MTTF (norm.)", 1.0,
         ours.reliability.mttf_seconds / base.reliability.mttf_seconds,
         ours.reliability.mttf_seconds / base.reliability.mttf_seconds],
    ]
    print()
    print(format_table(
        ["metric", "SECDED baseline", "IntelliNoC", "gain"], rows,
        title=f"IntelliNoC vs baseline on '{benchmark}'",
    ))
    print()
    breakdown = ", ".join(
        f"mode {m}: {frac:.0%}" for m, frac in ours.mode_breakdown.items()
    )
    print(f"IntelliNoC operation-mode breakdown: {breakdown}")
    print(f"Largest per-router Q-table: {ours.qtable_entries_max} entries")


if __name__ == "__main__":
    main()
