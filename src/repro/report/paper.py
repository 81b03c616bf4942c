"""Measure what :mod:`repro.report.paper_table` claims, and publish it.

One :class:`PaperEvaluator` — an :class:`~repro.exec.engine.EngineOptions`
like the campaign drivers — lays out every cell the paper's evaluation
needs (the Figs. 9-16 suite, the Figs. 17-18 sweeps, the MFAC and bypass
ablations) and runs them as *one* engine campaign: ``--jobs`` spans the
whole grid, one journal covers it, the default-configuration cell the
three RL sweeps share is simulated once, and a second run is pure cache
reads.  Tables come from the pure renderers of :mod:`repro.core.figures`
and :func:`repro.power.area.area_table`; the Eq. 1 reward ablation needs
a policy no spec can name and is the one figure simulated outside the
engine.

``python -m repro verify-paper`` measures :data:`FULL_GRID`, evaluates
every row, rewrites ``results/`` and the generated parts of
EXPERIMENTS.md, and exits non-zero when a row fails.  Tier-1 runs the same
code on :data:`REDUCED_GRID` and checks the committed files against each
other (``tests/report/test_paper.py``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from repro.config import (
    INTELLINOC,
    SECDED_BASELINE,
    ControlPolicy,
    FaultConfig,
    all_techniques,
)
from repro.control.policies import RlPolicy, make_policy
from repro.core import figures
from repro.core.experiment import run_technique
from repro.exec.engine import EngineOptions
from repro.exec.spec import CellSpec, parsec_cell
from repro.metrics.summary import RunMetrics
from repro.power.area import area_table
from repro.report.paper_table import ANY, FIGURES, PAPER, ROWS, Row
from repro.traffic.parsec import PARSEC_BENCHMARKS, generate_parsec_trace
from repro.utils.rng import RngFactory
from repro.utils.tables import format_table

TUNING_BENCHMARK = "blackscholes"
#: Figs. 17(a), 18(a), 18(b): RlConfig field -> (figure, title, values,
#: the tuned value the others are normalised to, unit).
SWEEPS = {
    "time_step": ("fig17a_timestep", "Fig. 17(a) - Impact of RL time step",
                  (200, 500, 1000, 10_000), 1000, " cycles"),
    "discount": ("fig18a_gamma", "Fig. 18(a) - Impact of discount rate",
                 (0.0, 0.1, 0.2, 0.5, 0.9, 1.0), 0.9, ""),
    "epsilon": ("fig18b_epsilon", "Fig. 18(b) - Impact of exploration probability",
                (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0), 0.05, ""),
}
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
#: Reward-ablation variant -> the observation fields its agents see as constants.
REWARD_BLIND = {
    "full reward": {},
    "drop latency": {"epoch_latency": 1.0},
    "drop power": {"epoch_power_w": 1e-3},
    "drop aging": {"aging_factor": 1.0},
}


@dataclass(frozen=True)
class Grid:
    """How large a run of the table is.  Not options: two constants."""

    name: str
    benchmarks: tuple[str, ...]
    duration: int  # the Figs. 9-16 suite's traces
    pretrain: int  # RL pre-training cycles (Section 6.3)
    tuning_duration: int  # Figs. 17-18 and the MFAC / bypass ablations
    reward_duration: int  # the Eq. 1 ablation, at a 250-cycle control step
    seed: int = 7


FULL_GRID = Grid("full", tuple(PARSEC_BENCHMARKS), 6_000, 40_000, 8_000, 30_000)
REDUCED_GRID = Grid("reduced", ("swa", "fre"), 800, 1_500, 300, 300)


class Measured(NamedTuple):
    """One figure: the text of ``results/<figure>.txt``, the values rows check."""

    table: str
    values: dict[str, float]


class Verdict(NamedTuple):
    row: Row
    value: float
    ok: bool


class _BlindedPolicy(RlPolicy):
    """RL policy whose agents see constants in place of one Eq. 1 term."""

    def __init__(self, agents, constants: dict[str, float]):
        super().__init__(agents)
        self.constants = constants

    def control_step(self, observations, cycle):
        blinded = [replace(obs, **self.constants) for obs in observations]
        return super().control_step(blinded, cycle)


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

    def specs(self) -> dict[tuple, CellSpec]:
        """Every engine cell of the grid, keyed by what it is a cell of."""
        g = self.grid

        def cell(technique, benchmark, duration, faults=None, pretrain=False):
            rl = pretrain and technique.policy is ControlPolicy.RL
            return parsec_cell(technique, benchmark, duration, g.seed, faults,
                               pretrain_cycles=g.pretrain if rl else 0)

        specs: dict[tuple, CellSpec] = {
            (t.name, b): cell(t, b, g.duration, pretrain=True)
            for t in all_techniques() for b in g.benchmarks
        }
        for knob, (_, _, points, _, _) in SWEEPS.items():
            for point in points:
                specs[knob, point] = cell(
                    INTELLINOC.with_rl(**{knob: point}),
                    TUNING_BENCHMARK, g.tuning_duration,
                )
        for rate in ERROR_RATES:
            faults = FaultConfig(base_bit_error_rate=rate * ERROR_ACCELERATION)
            for t in (SECDED_BASELINE, INTELLINOC):
                specs["error", rate, t.name] = cell(
                    t, "fac", g.tuning_duration, faults, pretrain=True
                )
        for figure, (benchmark, ablated) in ABLATIONS.items():
            for t in (INTELLINOC, ablated):
                specs[figure, t.name] = cell(t, benchmark, g.tuning_duration)
        return specs

    def measure(self) -> dict[str, Measured]:
        specs = self.specs()
        report = self.run_specs(list(specs.values()), "paper.run")
        if not report.ok:
            raise ValueError(
                "the paper table needs every cell; no result for "
                + ", ".join(cell.spec.label for cell in report.failed)
            )
        cells: dict[tuple, RunMetrics] = dict(zip(specs, report.metrics))
        g = self.grid
        names = [t.name for t in all_techniques()]
        out = {
            figure: _measured(figure, *render(cells, names, g.benchmarks))
            for figure, render in figures.NORMALIZED_FIGURES.items()
        }
        table, shares = figures.figure14_mode_breakdown(cells, g.benchmarks)
        out["fig14_mode_breakdown"] = _measured(
            "fig14_mode_breakdown", table,
            {f"mode {mode}": share for mode, share in shares.items()},
        )
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
            lines = {f"{p:g}{unit}": cells[knob, p] for p in points}
            base = cells[knob, tuned].energy_delay_product
            out[figure] = _study(
                figure, title, lines,
                {k: m.energy_delay_product / base for k, m in lines.items()},
                f"EDP vs {tuned:g}{unit}",
            )
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
            lines = {t.name: cells[figure, t.name] for t in (INTELLINOC, ablated)}
            out[figure] = _study(
                figure, f"Ablation - {ablated.name} ({benchmark})", lines,
                {f"{what} {name}": float(value)
                 for name, m in lines.items()
                 for what, value in (("packets", m.packets_completed),
                                     ("cycles", m.execution_cycles),
                                     ("latency", m.latency.mean))},
            )
        out["ablation_reward"] = self._reward_ablation()
        out["table2_area"] = _measured("table2_area", *area_table())
        return {figure: out[figure] for figure in FIGURES}

    def _reward_ablation(self) -> Measured:
        """Fast 250-cycle control steps, idle-driven gating off: mode-0
        occupancy is decided by the (blinded) reward alone."""
        g = self.grid
        technique = replace(
            INTELLINOC.with_rl(time_step=250, epsilon=0.15),
            idle_gate_threshold=10**9,
        )
        noc = technique.noc
        trace = generate_parsec_trace(
            TUNING_BENCHMARK, noc.width, noc.height, g.reward_duration,
            noc.flits_per_packet, g.seed,
        )
        lines = {}
        for variant, constants in REWARD_BLIND.items():
            agents = make_policy(technique, noc.num_routers, RngFactory(g.seed)).agents
            lines[variant] = run_technique(
                technique, trace, g.seed, policy=_BlindedPolicy(agents, constants)
            )
        values = {k: m.mode_breakdown.get(0, 0.0) for k, m in lines.items()}
        values["drop latency - full reward"] = (
            values["drop latency"] - values["full reward"]
        )
        return _study(
            "ablation_reward",
            f"Ablation - Eq. 1 reward terms ({TUNING_BENCHMARK})", lines, values,
        )


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
