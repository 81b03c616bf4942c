"""Mini PARSEC campaign: all five techniques over a subset of benchmarks.

Reproduces the structure of the paper's Figs. 9-16 at laptop scale and
prints the normalized tables.  For the full-scale regeneration of every
figure, checked against the paper table, run::

    python -m repro verify-paper

Usage::

    python examples/parsec_campaign.py [duration_cycles] [benchmark ...]
"""

import sys

from repro.core import figures
from repro.core.experiment import ExperimentRunner


def main() -> None:
    duration = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    benchmarks = sys.argv[2:] or ["swa", "bod", "can"]

    runner = ExperimentRunner(
        duration=duration,
        seed=11,
        benchmarks=benchmarks,
        pretrain_cycles=max(10_000, duration * 3),
    )
    print(
        f"Campaign: {len(runner.techniques)} techniques x {len(benchmarks)} "
        f"benchmarks, {duration}-cycle traces (pre-training IntelliNoC first)"
    )
    results = runner.run_campaign()
    names = [t.name for t in runner.techniques]

    averages = {}
    for figure, render in figures.SUITE_FIGURES.items():
        table, averages[figure] = render(results, names, benchmarks)
        print()
        print(table)
    print(
        "\nIntelliNoC average mode occupancy: "
        + ", ".join(f"{m}: {v:.0%}" for m, v in averages["fig14_mode_breakdown"].items())
    )


if __name__ == "__main__":
    main()
