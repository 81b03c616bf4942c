"""Measure what :mod:`repro.report.paper_table` claims, and publish it.

One :class:`PaperEvaluator` — an :class:`~repro.exec.engine.EngineOptions`
like the campaign drivers — lays out every cell the paper's evaluation
needs (the Figs. 9-16 suite, the Figs. 17-18 sweeps, the MFAC, bypass
and Eq. 1 reward ablations) and runs them as *one* engine campaign:
``--jobs`` spans the whole grid, one result store resumes it, the
default-configuration cell the three RL sweeps share is simulated once,
and a second run is pure cache reads.  Tables come from the pure
renderers of :mod:`repro.core.figures` and
:func:`repro.power.area.area_table`.

``python -m repro verify-paper`` measures
:data:`~repro.core.experiment.FULL_GRID`, evaluates every row, rewrites
``results/`` and the generated parts of EXPERIMENTS.md, and exits non-zero
when a row fails.  ``repro campaign`` and ``repro sweep`` print slices of
the same grid from the same cache keys.  Tier-1 runs the same code on
:data:`~repro.core.experiment.REDUCED_GRID` and checks the committed files
against each other (``tests/report/test_paper.py``).
"""

from __future__ import annotations

import json
import re
from collections.abc import Collection
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from repro.config import (
    INTELLINOC,
    SECDED_BASELINE,
    FaultConfig,
    all_techniques,
)
from repro.core import figures
from repro.core.experiment import FULL_GRID, SWEEPS, Grid
from repro.exec.engine import EngineOptions
from repro.exec.spec import CellSpec
from repro.metrics.summary import RunMetrics
from repro.power.area import area_table
from repro.report.paper_table import ANY, FIGURES, PAPER, ROWS, Row
from repro.utils.tables import format_table

TUNING_BENCHMARK = "blackscholes"
#: What the Figs. 9-16 suite's cells measure: its figures and Section 7.4.
SUITE = frozenset({*figures.SUITE_FIGURES, "rl_overhead"})
#: Fig. 17(b): the paper's average bit error rates on `fac`, scaled by one
#: common factor so a short window sees enough faults (DESIGN.md).
ERROR_RATES = (1e-10, 1e-9, 1e-8, 1e-7)
ERROR_ACCELERATION = 2e3
#: Ablation figure -> (benchmark, IntelliNoC without the hardware).  No
#: MFAC means a single-link channel with the same total storage.
ABLATIONS = {
    "ablation_mfac": ("fer", replace(
        INTELLINOC, name="IntelliNoC-noMFAC", uses_mfac=False,
        noc=replace(INTELLINOC.noc, channel_links=1),
    )),
    "ablation_bypass": ("swa", replace(
        INTELLINOC, name="IntelliNoC-noBypass", uses_bypass=False
    )),
}
#: Reward-ablation variant -> Eq. 1's (latency, power, aging) weights.
REWARD_WEIGHTS = {
    "full reward": (1.0, 1.0, 1.0),
    "drop latency": (0.0, 1.0, 1.0),
    "drop power": (1.0, 0.0, 1.0),
    "drop aging": (1.0, 1.0, 0.0),
}


class Measured(NamedTuple):
    """One figure: the text of ``results/<figure>.txt``, the values rows check."""

    table: str
    values: dict[str, float]


class Verdict(NamedTuple):
    row: Row
    value: float
    ok: bool


def _measured(figure: str, table: str, values: dict[str, float]) -> Measured:
    """A figure's table with what the paper reports appended."""
    if figure in PAPER:
        table += "\npaper: " + ", ".join(f"{k}={v:g}" for k, v in PAPER[figure].items())
    return Measured(f"{table}\n{FIGURES[figure]}", values)


def _study(
    figure: str,
    title: str,
    lines: dict[str, RunMetrics],
    values: dict[str, float],
    value_header: str = "",
) -> Measured:
    """The table every single-workload study shares: one line per variant,
    the same columns, then the variant's value where the figure has one."""
    rows = [
        [label, m.packets_completed, m.execution_cycles, m.latency.mean,
         m.static_power_w, m.total_energy_j * 1e6,
         m.reliability.retransmission_rate, m.mode_breakdown.get(0, 0.0),
         *([values.get(label, "")] if value_header else [])]
        for label, m in lines.items()
    ]
    headers = ["variant", "packets", "exec cycles", "avg latency", "static W",
               "energy (uJ)", "retx rate", "mode-0 share",
               *([value_header] if value_header else [])]
    return _measured(figure, format_table(headers, rows, title=title), values)


@dataclass
class PaperEvaluator(EngineOptions):
    """Measures every figure of the table on one grid."""

    grid: Grid = FULL_GRID

    def specs(self, only: Collection[str] = FIGURES) -> dict[tuple, CellSpec]:
        """The engine cells of the figures *only* names (default: all of
        them), keyed by what each is a cell of."""
        g = self.grid
        untrained = replace(g, pretrain=0)
        specs: dict[tuple, CellSpec] = {}
        if not SUITE.isdisjoint(only):
            specs.update({(t.name, b): g.cell(t, b)
                          for t in all_techniques() for b in g.benchmarks})
        for knob, (figure, _, points, _, _) in SWEEPS.items():
            if figure in only:
                for point in points:
                    specs[knob, point] = untrained.cell(
                        INTELLINOC.with_rl(**{knob: point}),
                        TUNING_BENCHMARK, g.tuning_duration,
                    )
        if "fig17b_error_rate" in only:
            for rate in ERROR_RATES:
                faults = FaultConfig(base_bit_error_rate=rate * ERROR_ACCELERATION)
                for t in (SECDED_BASELINE, INTELLINOC):
                    specs["error", rate, t.name] = g.cell(
                        t, "fac", g.tuning_duration, faults
                    )
        for figure, (benchmark, ablated) in ABLATIONS.items():
            if figure in only:
                for t in (INTELLINOC, ablated):
                    specs[figure, t.name] = untrained.cell(t, benchmark, g.tuning_duration)
        # Eq. 1 ablation: fast 250-cycle control steps and idle-driven gating
        # off, so mode-0 occupancy is decided by the (weighted) reward alone.
        if "ablation_reward" in only:
            for variant, weights in REWARD_WEIGHTS.items():
                technique = replace(
                    INTELLINOC.with_rl(time_step=250, epsilon=0.15,
                                       reward_weights=weights),
                    name="IntelliNoC-" + variant.title().replace(" ", ""),
                    idle_gate_threshold=10**9,
                )
                specs["ablation_reward", variant] = untrained.cell(
                    technique, TUNING_BENCHMARK, g.reward_duration
                )
        return specs

    def measure(self, only: Collection[str] = FIGURES) -> dict[str, Measured]:
        """The figures *only* names (default: every figure of the table),
        measured as one campaign of their cells."""
        specs = self.specs(only)
        report = self.run_specs(list(specs.values()), "paper.run")
        cells: dict[tuple, RunMetrics] = dict(zip(specs, report.metrics))
        g = self.grid
        names = [t.name for t in all_techniques()]
        out = {
            figure: _measured(figure, *render(cells, names, g.benchmarks))
            for figure, render in figures.SUITE_FIGURES.items() if figure in only
        }
        if "rl_overhead" in only:
            entries = max(cells[INTELLINOC.name, b].qtable_entries_max
                          for b in g.benchmarks)
            values = {"Q-table entries": float(entries),
                      "visited fraction": entries / 5**16}
            out["rl_overhead"] = _measured("rl_overhead", format_table(
                ["quantity (max over routers and suite; 5^16 nominal states)", "value"],
                [[k, f"{v:.4g}"] for k, v in values.items()],
                title="Section 7.4 - RL overhead",
            ), values)
        for knob, (figure, title, points, tuned, unit) in SWEEPS.items():
            if figure in only:
                lines = {f"{p:g}{unit}": cells[knob, p] for p in points}
                base = cells[knob, tuned].energy_delay_product
                out[figure] = _study(
                    figure, title, lines,
                    {k: m.energy_delay_product / base for k, m in lines.items()},
                    f"EDP vs {tuned:g}{unit}",
                )
        if "fig17b_error_rate" in only:
            lines, values = {}, {}
            for rate in ERROR_RATES:
                base = cells["error", rate, SECDED_BASELINE.name]
                ours = cells["error", rate, INTELLINOC.name]
                lines[f"{rate:.0e} SECDED"] = base
                lines[f"{rate:.0e}"] = ours
                values[f"{rate:.0e}"] = ours.total_energy_j / base.total_energy_j
            out["fig17b_error_rate"] = _study(
                "fig17b_error_rate", "Fig. 17(b) - Impact of transient error rates "
                "(fac; a bare rate is IntelliNoC's line)", lines, values,
                "energy vs SECDED",
            )
        for figure, (benchmark, ablated) in ABLATIONS.items():
            if figure in only:
                lines = {t.name: cells[figure, t.name] for t in (INTELLINOC, ablated)}
                out[figure] = _study(
                    figure, f"Ablation - {ablated.name} ({benchmark})", lines,
                    {f"{what} {name}": float(value)
                     for name, m in lines.items()
                     for what, value in (("packets", m.packets_completed),
                                         ("cycles", m.execution_cycles),
                                         ("latency", m.latency.mean))},
                )
        if "ablation_reward" in only:
            lines = {v: cells["ablation_reward", v] for v in REWARD_WEIGHTS}
            values = {k: m.mode_breakdown.get(0, 0.0) for k, m in lines.items()}
            values["drop latency - full reward"] = (
                values["drop latency"] - values["full reward"]
            )
            out["ablation_reward"] = _study(
                "ablation_reward",
                f"Ablation - Eq. 1 reward terms ({TUNING_BENCHMARK})", lines, values,
            )
        out["table2_area"] = _measured("table2_area", *area_table())
        return {figure: out[figure] for figure in FIGURES if figure in only}


# --- evaluate, render, publish ---------------------------------------------------

AllValues = dict[str, dict[str, float]]


def evaluate(values: AllValues, grid: Grid = FULL_GRID) -> list[Verdict]:
    """Check every row asserted on *grid* against ``{figure: {subject: value}}``."""
    verdicts = []
    for row in ROWS:
        if row.grid in (ANY, grid.name):
            value = values[row.figure][row.subject]
            verdicts.append(
                Verdict(row, value, row.check.holds(value, values[row.figure]))
            )
    return verdicts


def verdict_table(verdicts: list[Verdict]) -> str:
    """The table as GitHub Markdown: a heading line per figure with the
    paper's finding, one line per row, what failed in bold."""
    lines = ["| figure / subject | paper | measured | check | verdict |",
             "|---|---|---|---|---|"]
    figure = None
    for row, value, ok in verdicts:
        if row.figure != figure:
            figure = row.figure
            lines.append(f"| **{figure}** — {FIGURES[figure]} | | | | |")
        verdict = "ok" if ok else "**FAILED**"
        if ok and row.known_deviation:
            verdict = f"known deviation, pinned: {row.known_deviation}"
        paper = "" if row.paper is None else f"{row.paper:g}"
        counted = value.is_integer() and abs(value) >= 100
        lines.append(f"| {row.subject} | {paper} | {value:{'.0f' if counted else '.4g'}} "
                     f"| {row.check.text} | {verdict} |")
    return "\n".join(lines)


_VALUE_MARK = re.compile(r"(<!--m (\S+?)/([^>]+?) ([^\s>]+)-->).*?(<!--/m-->)")
_TABLE_MARK = re.compile(r"(<!--paper-table-->\n).*?(<!--/paper-table-->)", re.S)


def render_experiments(text: str, values: AllValues) -> str:
    """Regenerate the generated parts of EXPERIMENTS.md from *values*:
    every ``<!--m figure/subject format-->...<!--/m-->`` cell and the row
    table between the ``paper-table`` markers."""
    text = _VALUE_MARK.sub(
        lambda m: m[1] + format(values[m[2]][m[3]], m[4]) + m[5], text
    )
    table = verdict_table(evaluate(values))
    return _TABLE_MARK.sub(lambda m: f"{m[1]}{table}\n{m[2]}", text)


def publish(measured: dict[str, Measured], root: Path = Path(".")) -> AllValues:
    """Write ``results/`` (one table per figure, ``measured.json``) and
    re-render EXPERIMENTS.md under *root*; returns the values written."""
    (root / "results").mkdir(exist_ok=True)
    for figure, m in measured.items():
        (root / "results" / f"{figure}.txt").write_text(m.table + "\n")
    values = {figure: m.values for figure, m in measured.items()}
    (root / "results" / "measured.json").write_text(
        json.dumps(values, indent=1, sort_keys=True) + "\n"
    )
    page = root / "EXPERIMENTS.md"
    page.write_text(render_experiments(page.read_text(), values))
    return values
