"""The paper's Section 7, as one declarative table.

Every claim of the evaluation this repository reproduces is one
:class:`Row`: which figure, which subject of it (a technique's suite
average, a sweep point, an ablation variant), what the paper reports
(:data:`PAPER`), and the check the measured value must pass — an
inequality, an ordering among the figure's subjects, or a band.  A row
carrying ``known_deviation`` marks a place where the reproduction does
*not* match the paper: its band sits round today's value, so the row
fails when the value moves in either direction, towards the paper or away.

The table is data only; :mod:`repro.report.paper` measures the values
and evaluates the rows (``python -m repro verify-paper``).
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping
from dataclasses import dataclass

#: Grids a row is asserted on: the full grid only (bands round a full-grid
#: value; the name of `repro.core.experiment.FULL_GRID`), or the reduced tier-1
#: grid as well (directional claims).
FULL = "full"
ANY = "any"

Values = Mapping[str, float]

TECHNIQUES = ("SECDED", "EB", "CP", "CPD", "IntelliNoC")


@dataclass(frozen=True)
class Check:
    """A named predicate over a subject's value and its figure's values."""

    text: str
    holds: Callable[[float, Values], bool]


def _limit(bound: float, of: str | None) -> tuple[str, Callable[[Values], float]]:
    """A bound's text and value: a constant, or *bound* times subject *of*."""
    if of is None:
        return f"{bound:g}", lambda values: bound
    scale = "" if bound == 1.0 else f"{bound:g} x "  # noqa: NOC302 -- a literal of this table, never a computed float
    return f"{scale}{of}", lambda values: bound * values[of]


def below(bound: float, of: str | None = None) -> Check:
    text, limit = _limit(bound, of)
    return Check(f"< {text}", lambda value, values: value < limit(values))


def above(bound: float, of: str | None = None) -> Check:
    text, limit = _limit(bound, of)
    return Check(f"> {text}", lambda value, values: value > limit(values))


def band(lo: float, hi: float, of: str | None = None) -> Check:
    (lo_text, lo_limit), (hi_text, hi_limit) = _limit(lo, of), _limit(hi, of)
    return Check(
        f"= {lo_text}" if lo == hi else f"in [{lo_text}, {hi_text}]",
        lambda value, values: lo_limit(values) <= value <= hi_limit(values),
    )


def near(paper: float, tolerance: float) -> Check:
    holds = band(paper - tolerance, paper + tolerance).holds
    return Check(f"paper +/- {tolerance:g}", holds)


def ranked(k: int, highest: bool = False, among: Collection[str] = ()) -> Check:
    """Among the *k* lowest (or highest) of the figure's subjects (of those
    *among* names, when given); ties count."""

    def holds(value: float, values: Values) -> bool:
        pool = [v for s, v in values.items() if not among or s in among]
        kth = sorted(pool, reverse=highest)[k - 1]
        return value >= kth if highest else value <= kth

    end = "highest" if highest else "lowest"
    return Check(end if k == 1 else f"among the {k} {end}", holds)


#: What the paper reports, per figure and subject (suite averages
#: normalised to SECDED for Figs. 9-16, mode shares for Fig. 14, percent
#: area change for Table 2).  Figures with no entry state a direction only.
PAPER: dict[str, dict[str, float]] = {
    "fig09_speedup": dict(zip(TECHNIQUES, (1.0, 1.06, 0.97, 1.08, 1.16))),
    "fig10_latency": dict(zip(TECHNIQUES, (1.0, 0.83, 1.0, 0.9, 0.68))),
    "fig11_static_power": dict(zip(TECHNIQUES, (1.0, 0.86, 0.80, 0.77, 0.55))),
    "fig12_dynamic_power": dict(zip(TECHNIQUES, (1.0, 0.85, 0.88, 0.75, 0.62))),
    "fig13_energy_efficiency": dict(zip(TECHNIQUES, (1.0, 1.25, 1.15, 1.36, 1.67))),
    "fig14_mode_breakdown": {
        "mode 0": 0.20, "mode 1": 0.55, "mode 2": 0.12, "mode 3": 0.07,
        "mode 4": 0.06,
    },
    "fig15_retransmissions": dict(zip(TECHNIQUES, (1.0, 0.85, 0.8, 0.7, 0.55))),
    "fig16_mttf": dict(zip(TECHNIQUES, (1.0, 1.1, 1.2, 1.3, 1.77))),
    "table2_area": dict(zip(TECHNIQUES, (0.0, -32.7, -29.9, -29.9, -25.4))),
    "rl_overhead": {"Q-table entries": 300.0},
}

#: Every figure of the table -> the metric its values are; the paper's finding.
FIGURES: dict[str, str] = {
    "fig09_speedup": "execution-time speed-up vs SECDED, suite geomean; "
                     "IntelliNoC fastest, CP slower than the baseline",
    "fig10_latency": "end-to-end latency vs SECDED, suite geomean; "
                     "IntelliNoC lowest, EB wins by eliminating VA",
    "fig11_static_power": "static power vs SECDED, suite geomean; "
                          "every technique saves, IntelliNoC the most",
    "fig12_dynamic_power": "dynamic power vs SECDED, suite geomean; "
                           "adaptive ECC beats the static-SECDED channel design",
    "fig13_energy_efficiency": "Eq. 8 energy-efficiency vs SECDED, suite geomean; "
                               "IntelliNoC best, clearly ahead of CPD",
    "fig14_mode_breakdown": "IntelliNoC operation-mode share, suite mean; "
                            "mode 1 dominates, every mode is used",
    "fig15_retransmissions": "re-transmitted flits vs SECDED, suite geomean; "
                             "every technique retransmits less, IntelliNoC least",
    "fig16_mttf": "mean time to failure vs SECDED, suite geomean; "
                  "IntelliNoC highest by stress relief",
    "fig17a_timestep": "EDP vs the 1 000-cycle RL time step; "
                       "1k cycles is optimal, 200 and 10k are sub-optimal",
    "fig17b_error_rate": "IntelliNoC energy vs SECDED per injected error rate; "
                         "IntelliNoC's relative advantage grows with the rate",
    "fig18a_gamma": "EDP vs gamma = 0.9; best at 0.9, gamma = 1 hurts",
    "fig18b_epsilon": "EDP vs epsilon = 0.05; best at 0.05, 0 and 1 sub-optimal",
    "table2_area": "router + channel area, % change vs SECDED; "
                   "every alternative is smaller, EB smallest",
    "rl_overhead": "Q-table size, max over routers; "
                   "no more than ~300 visited entries, 350 budgeted",
    "ablation_mfac": "IntelliNoC with and without MFAC hardware (fer); "
                     "the MFAC functions cost no performance",
    "ablation_bypass": "IntelliNoC with and without the bypass (swa); "
                       "the bypass recovers the latency cost of gating",
    "ablation_reward": "mode-0 share with one Eq. 1 term weighted to 0 (blackscholes); "
                       "no latency term over-gates, no power term never gates",
}


@dataclass(frozen=True)
class Row:
    """One machine-checked claim of the reproduction."""

    figure: str
    subject: str
    check: Check
    grid: str = FULL
    known_deviation: str = ""

    @property
    def paper(self) -> float | None:
        return PAPER.get(self.figure, {}).get(self.subject)


_OPEN_LOOP = (
    "open-loop traces: latency never delays the next request, so execution "
    "time is tied to trace length (ROADMAP item 6 closes it)"
)
_SHORT_HORIZON = (
    "needs full-application phase dynamics; an 8 000-cycle tuning run "
    "cannot show it"
)

_MODE1 = (
    "the pre-trained agent loses to IntelliNoC-mode1, its own hardware held "
    "in mode 1 with no controller (ROADMAP item 12)"
)

ROWS: tuple[Row, ...] = (
    # Fig. 9: who is fastest reproduces, by how much does not.
    Row("fig09_speedup", "IntelliNoC", band(1.003, 1.013),
        known_deviation=_OPEN_LOOP),
    Row("fig09_speedup", "IntelliNoC", ranked(1, highest=True)),
    Row("fig09_speedup", "IntelliNoC", above(0.97), ANY),
    Row("fig09_speedup", "CP", below(1.0), ANY),
    # Fig. 10
    Row("fig10_latency", "EB", below(1.0), ANY),
    Row("fig10_latency", "IntelliNoC", below(1.0), ANY),
    Row("fig10_latency", "IntelliNoC", ranked(2, among=TECHNIQUES)),
    Row("fig10_latency", "IntelliNoC", near(0.68, 0.15)),
    Row("fig10_latency", "IntelliNoC", below(1.0, of="IntelliNoC-mode1")),
    # Fig. 11
    *(Row("fig11_static_power", name, below(1.0), ANY)
      for name in TECHNIQUES[1:]),
    Row("fig11_static_power", "IntelliNoC", ranked(1), ANY),
    Row("fig11_static_power", "IntelliNoC", near(0.55, 0.10)),
    # Fig. 12
    Row("fig12_dynamic_power", "IntelliNoC", below(1.0, of="CP"), ANY),
    Row("fig12_dynamic_power", "IntelliNoC", below(1.0), ANY),
    Row("fig12_dynamic_power", "IntelliNoC", near(0.62, 0.10)),
    # Fig. 13
    Row("fig13_energy_efficiency", "IntelliNoC",
        ranked(1, highest=True, among=TECHNIQUES), ANY),
    Row("fig13_energy_efficiency", "IntelliNoC", above(1.2), ANY),
    Row("fig13_energy_efficiency", "IntelliNoC", above(1.0, of="CPD"), ANY),
    Row("fig13_energy_efficiency", "IntelliNoC", near(1.67, 0.20)),
    Row("fig13_energy_efficiency", "CPD", near(1.36, 0.15)),
    Row("fig13_energy_efficiency", "IntelliNoC", band(0.87, 0.9, of="IntelliNoC-mode1"),
        known_deviation=_MODE1),
    # Fig. 14
    Row("fig14_mode_breakdown", "mode 1", ranked(1, highest=True), ANY),
    Row("fig14_mode_breakdown", "mode 1", above(0.35), ANY),
    *(Row("fig14_mode_breakdown", f"mode {m}", above(0.0))
      for m in (0, 2, 3, 4)),
    Row("fig14_mode_breakdown", "mode 0", band(0.035, 0.0415),
        known_deviation="the synthetic profiles keep routers busier than full "
                        "applications; gating pays only on the quiet ones (swa)"),
    # Fig. 15
    Row("fig15_retransmissions", "IntelliNoC", below(1.0)),
    Row("fig15_retransmissions", "IntelliNoC", ranked(1)),
    Row("fig15_retransmissions", "IntelliNoC", near(0.55, 0.15)),
    Row("fig15_retransmissions", "CPD", band(1.0, 1.18),
        known_deviation="CPD's CRC-only epochs pay whole-packet end-to-end "
                        "retransmissions the heuristic reacts to one epoch late"),
    # Fig. 16
    Row("fig16_mttf", "IntelliNoC", ranked(1, highest=True, among=TECHNIQUES), ANY),
    Row("fig16_mttf", "IntelliNoC", above(1.3), ANY),
    *(Row("fig16_mttf", name, above(1.0)) for name in TECHNIQUES[1:4]),
    Row("fig16_mttf", "IntelliNoC", band(0.71, 0.745, of="IntelliNoC-mode1"),
        known_deviation=_MODE1),
    # Fig. 17(a): the short-step penalty reproduces, the long-step one not.
    Row("fig17a_timestep", "200 cycles", above(1.0)),
    Row("fig17a_timestep", "500 cycles", above(1.0)),
    Row("fig17a_timestep", "10000 cycles", band(0.92, 0.97),
        known_deviation="the 10 k-step staleness penalty " + _SHORT_HORIZON),
    # Fig. 17(b)
    *(Row("fig17b_error_rate", rate, below(1.0), ANY)
      for rate in ("1e-10", "1e-09", "1e-08", "1e-07")),
    Row("fig17b_error_rate", "1e-07", below(1.25, of="1e-10"), ANY),
    # Fig. 18(a): the tuned value is tied-best on a flat curve.
    *(Row("fig18a_gamma", gamma, above(1 / 1.10))
      for gamma in ("0", "0.1", "0.2", "0.5")),
    Row("fig18a_gamma", "1", band(0.99, 1.01),
        known_deviation="gamma = 1's convergence failure " + _SHORT_HORIZON),
    # Fig. 18(b): the exploration penalty reproduces, epsilon = 0's not.
    *(Row("fig18b_epsilon", eps, above(1 / 1.10))
      for eps in ("0.01", "0.1", "0.2", "0.5")),
    Row("fig18b_epsilon", "1", above(1.0)),
    Row("fig18b_epsilon", "0", band(0.97, 1.0),
        known_deviation="epsilon = 0's stuck-on-the-initial-mode penalty "
                        + _SHORT_HORIZON),
    # Table 2: reproduced by construction from the published component rows.
    Row("table2_area", "EB", near(-32.7, 0.1), ANY),
    Row("table2_area", "CP", near(-29.9, 0.1), ANY),
    Row("table2_area", "IntelliNoC", near(-25.4, 0.1), ANY),
    Row("table2_area", "EB", ranked(1), ANY),
    # Section 7.4: the sparsity argument holds, the absolute size does not.
    Row("rl_overhead", "visited fraction", below(1e-6), ANY),
    Row("rl_overhead", "Q-table entries", above(10), ANY),
    Row("rl_overhead", "Q-table entries", band(3700, 4400),
        known_deviation="control epochs far shorter and noisier than the "
                        "paper's full-application runs visit more states"),
    # Ablations (DESIGN.md section 7).
    Row("ablation_mfac", "packets IntelliNoC",
        band(1.0, 1.0, of="packets IntelliNoC-noMFAC"), ANY),
    Row("ablation_mfac", "cycles IntelliNoC",
        below(1.1, of="cycles IntelliNoC-noMFAC"), ANY),
    Row("ablation_bypass", "packets IntelliNoC",
        band(1.0, 1.0, of="packets IntelliNoC-noBypass"), ANY),
    Row("ablation_bypass", "latency IntelliNoC",
        below(1.05, of="latency IntelliNoC-noBypass"), ANY),
    Row("ablation_reward", "drop latency - full reward", above(-0.02)),
    Row("ablation_reward", "drop power", below(1.0, of="drop latency")),
)
