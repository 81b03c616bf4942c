"""Markdown campaign reports.

Turns a completed :class:`~repro.core.experiment.ExperimentRunner` campaign
into a single self-contained Markdown document: per-figure tables, ASCII
bar charts of the suite averages, and a verdict line comparing each
headline number against the paper's published value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core import figures
from repro.core.experiment import ExperimentRunner
from repro.report.charts import bar_chart
from repro.report.paper_table import PAPER


@dataclass
class CampaignReport:
    """Builds the report from a runner whose campaign has been executed."""

    runner: ExperimentRunner
    title: str = "IntelliNoC reproduction — campaign report"
    _sections: list[str] = field(default_factory=list, repr=False)

    def build(self) -> str:
        """Assemble the full Markdown document."""
        self._sections = [self._header()]
        r = self.runner
        results = r.run_campaign()
        names = [t.name for t in r.techniques]
        for key, render in figures.NORMALIZED_FIGURES.items():
            table, averages = render(results, names, r.benchmarks)
            self._sections.append(self._figure_section(
                table.splitlines()[0], table, averages, PAPER[key]
            ))
        self._sections.append(self._mode_section())
        self._sections.append(self._reliability_section())
        return "\n\n".join(self._sections) + "\n"

    def _header(self) -> str:
        r = self.runner
        benchmarks = ", ".join(r.benchmarks)
        return (
            f"# {self.title}\n\n"
            f"* traces: {r.duration} cycles, seed {r.seed}\n"
            f"* benchmarks: {benchmarks}\n"
            f"* techniques: {', '.join(t.name for t in r.techniques)}\n"
            f"* RL pre-training: {r.pretrain_cycles} cycles "
            f"(blackscholes load sweep)"
        )

    def _figure_section(
        self,
        heading: str,
        table: str,
        averages: dict[str, float],
        paper: dict[str, float],
    ) -> str:
        chart = bar_chart(averages, reference="SECDED")
        parts = [
            f"## {heading}", "```", table, "", chart, "```",
            self._verdicts(averages, paper),
        ]
        return "\n".join(parts)

    @staticmethod
    def _verdicts(averages: dict[str, float], paper: dict[str, float]) -> str:
        """One line per technique the paper (`repro.report.paper_table`)
        puts on one side of the baseline: is the measured value on it too?"""
        lines = []
        for name, published in paper.items():
            measured = averages.get(name)
            if measured is None or published == 1.0:  # noqa: NOC302 -- a literal of the paper table: the baseline itself, or no stated direction
                continue
            direction_ok = (measured > 1.0) == (published > 1.0)
            marker = "shape reproduced" if direction_ok else "SHAPE MISMATCH"
            lines.append(
                f"* {name}: paper {published:.2f}x, measured {measured:.2f}x "
                f"— {marker}"
            )
        return "\n".join(lines)

    def _reliability_section(self) -> str:
        table = self.runner.reliability_table()
        return "\n".join([
            "## Delivery accounting (fault scenarios)",
            "```", table, "```",
            "delivery ratio = completed / injected; refused = packets turned "
            "away at injection (dead endpoint); availability weighs dead "
            "routers by the run fraction they spent dead.  All 1.0 / 0 on "
            "runs without a fault scenario.",
        ])

    def _mode_section(self) -> str:
        table, average = self.runner.figure14_mode_breakdown()
        chart = bar_chart(
            {f"mode {m}": v for m, v in average.items()}, fmt="{:.0%}"
        )
        return "\n".join([
            "## Fig. 14 — IntelliNoC operation-mode breakdown",
            "```", table, "", chart, "```",
            "paper average: mode 0 ~20%, mode 1 ~55%, modes 2-4 ~25%",
        ])


def write_report(runner: ExperimentRunner, path: str | Path) -> Path:
    """Build and write the campaign report; returns the written path."""
    path = Path(path)
    path.write_text(CampaignReport(runner).build())
    return path
