"""The paper table: its checks, its committed values, its reduced-grid run.

Cheapest first: the check functions on numbers; the committed
``results/measured.json`` against the table and EXPERIMENTS.md (no
simulation); the evaluator on the reduced grid, through the suite's
result cache.
"""

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.experiment import FULL_GRID, REDUCED_GRID, Grid
from repro.core.figures import SUITE_FIGURES
from repro.exec.store import default_cache_dir
from repro.noc.network import Network
from repro.report import paper
from repro.report.paper_table import (
    ANY, FIGURES, PAPER, ROWS, above, band, below, near, ranked,
)

ROOT = Path(__file__).resolve().parents[2]
COMMITTED = json.loads((ROOT / "results" / "measured.json").read_text())
KNOWN_DEVIATIONS = [row for row in ROWS if row.known_deviation]


def no_network(*args, **kwargs):
    raise AssertionError("a warm run built a Network")


def row_id(row):
    return f"{row.figure}/{row.subject}"


def failed(values, grid=FULL_GRID):
    return [row_id(v.row) for v in paper.evaluate(values, grid) if not v.ok]


class TestChecks:
    def test_inequalities_are_strict_and_bands_inclusive(self):
        assert below(1.0).holds(0.99, {}) and not below(1.0).holds(1.0, {})
        assert above(1.0).holds(1.01, {}) and not above(1.0).holds(1.0, {})
        assert band(0.9, 1.1).holds(0.9, {}) and band(0.9, 1.1).holds(1.1, {})
        assert not band(0.9, 1.1).holds(1.11, {})
        assert near(0.68, 0.15).holds(0.83, {})
        assert not near(0.68, 0.15).holds(0.84, {})

    def test_a_bound_scales_by_another_subject(self):
        values = {"ours": 1.0, "base": 2.0}
        assert below(0.55, of="base").holds(1.0, values)
        assert not below(0.45, of="base").holds(1.0, values)
        assert band(0.5, 0.5, of="base").holds(1.0, values)
        assert below(1.05, of="base").text == "< 1.05 x base"
        assert band(1.0, 1.0, of="base").text == "= base"

    def test_ranked_counts_ties(self):
        values = {"a": 1.0, "b": 2.0, "c": 2.0, "d": 3.0}
        assert ranked(1).holds(1.0, values) and not ranked(1).holds(2.0, values)
        assert ranked(2).holds(2.0, values)
        assert ranked(2, highest=True).holds(2.0, values)
        assert not ranked(2, highest=True).holds(1.0, values)
        assert ranked(2).text == "among the 2 lowest"


class TestCommittedRun:
    """results/ and EXPERIMENTS.md are one full-grid run's output."""

    def test_every_figure_has_rows_a_results_file_and_passes(self):
        assert {row.figure for row in ROWS} == set(FIGURES) == set(COMMITTED)
        assert set(PAPER) <= set(FIGURES)
        for figure in FIGURES:
            assert FIGURES[figure] in (ROOT / "results" / f"{figure}.txt").read_text()
        assert failed(COMMITTED) == []

    @pytest.mark.parametrize("row", KNOWN_DEVIATIONS, ids=row_id)
    @pytest.mark.parametrize("factor", [0.9, 1.1], ids=["down", "up"])
    def test_known_deviation_fails_when_it_moves(self, row, factor):
        """Towards the paper or away: a 10 % move of a pinned value leaves
        its band (the check function on numbers, no simulation)."""
        values = {f: dict(v) for f, v in COMMITTED.items()}
        values[row.figure][row.subject] *= factor
        assert row in [v.row for v in paper.evaluate(values) if not v.ok]

    def test_the_places_we_do_not_reproduce_are_pinned(self):
        assert {
            "fig09_speedup/IntelliNoC",
            "fig17a_timestep/10000 cycles",
            "fig18a_gamma/1",
        } <= {row_id(row) for row in KNOWN_DEVIATIONS}

    def test_experiments_md_is_the_rendering_of_the_committed_values(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert text.count("<!--/m-->") > 50 and "| **fig09_speedup** — " in text
        assert paper.render_experiments(text, COMMITTED) == text, (
            "EXPERIMENTS.md differs from results/measured.json: regenerate "
            "both with `python -m repro verify-paper`"
        )
        moved = {f: dict(v) for f, v in COMMITTED.items()}
        moved["fig09_speedup"]["IntelliNoC"] = 1.16
        rendered = paper.render_experiments(text, moved)
        assert "<!--m fig09_speedup/IntelliNoC .3f-->1.160<!--/m-->" in rendered
        assert "| IntelliNoC | 1.16 | 1.16 | in [1.003, 1.013] | **FAILED** |" in rendered


@pytest.fixture(scope="module")
def reduced():
    return paper.PaperEvaluator(grid=REDUCED_GRID, use_cache=True).measure()


class TestReducedGrid:
    def test_every_subject_is_measured_and_the_directional_rows_hold(self, reduced):
        assert list(reduced) == list(FIGURES)
        values = {figure: m.values for figure, m in reduced.items()}
        for row in ROWS:
            assert row.subject in values[row.figure], row_id(row)
        assert {v.row.grid for v in paper.evaluate(values, REDUCED_GRID)} == {ANY}
        assert failed(values, REDUCED_GRID) == []

    def test_a_second_run_is_one_campaign_of_cache_reads(self, reduced, monkeypatch):
        """Every figure, the Eq. 1 reward ablation included, is engine cells:
        a warm run simulates nothing."""

        monkeypatch.setattr(Network, "__init__", no_network)
        again = paper.PaperEvaluator(grid=REDUCED_GRID, use_cache=True)
        assert again.measure() == reduced
        assert again.engine.total_executed == 0
        # The three RL sweeps share their default-configuration cell.
        assert again.engine.total_cache_hits == len(again.specs()) - 2

    def test_publish_writes_results_and_renders_the_page(self, reduced, tmp_path):
        shutil.copy(ROOT / "EXPERIMENTS.md", tmp_path)
        values = paper.publish(reduced, tmp_path)
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == sorted(
            [f"{figure}.txt" for figure in FIGURES] + ["measured.json"]
        )
        assert values == json.loads((tmp_path / "results" / "measured.json").read_text())
        page = (tmp_path / "EXPERIMENTS.md").read_text()
        assert paper.render_experiments(page, values) == page
        speedup = values["fig09_speedup"]["IntelliNoC"]
        assert f"<!--m fig09_speedup/IntelliNoC .3f-->{speedup:.3f}<!--/m-->" in page


class TestCli:
    def test_verify_paper_takes_the_engine_options_and_nothing_else(self):
        args = build_parser().parse_args(["verify-paper", "--jobs", "2", "--no-cache"])
        assert args.jobs == 2 and args.no_cache
        for flag in ("--duration", "--seed", "--pretrain", "--benchmarks"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["verify-paper", flag, "1"])

    def test_verify_paper_end_to_end(self, reduced, tmp_path, monkeypatch, capsys):
        """The command itself, its grid swapped for the reduced one: it
        publishes into the working directory and exits 1, because the
        full-grid bands do not hold on a reduced grid."""

        @dataclass
        class ReducedEvaluator(paper.PaperEvaluator):
            grid: Grid = REDUCED_GRID

        monkeypatch.setattr(paper, "PaperEvaluator", ReducedEvaluator)
        shutil.copy(ROOT / "EXPERIMENTS.md", tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["verify-paper", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "| **fig09_speedup** — " in out and "**FAILED**" in out
        assert (tmp_path / "results" / "fig13_energy_efficiency.txt").exists()

    def test_campaign_and_sweep_print_slices_of_the_grid(
        self, reduced, monkeypatch, capsys
    ):
        """After the table's run, `campaign` and `sweep` at their defaults
        (the CLI's grid swapped for the reduced one) are cache reads of the
        same cells and print the tables results/ holds."""
        monkeypatch.setattr(cli, "FULL_GRID", REDUCED_GRID)
        monkeypatch.setattr(Network, "__init__", no_network)
        cache = str(default_cache_dir())

        def body(figure):
            """results/<figure>.txt without what the paper reports."""
            table = reduced[figure].table.removesuffix("\n" + FIGURES[figure])
            return table.split("\npaper: ")[0]

        assert main(["campaign", "--cache-dir", cache, "--quiet"]) == 0
        assert capsys.readouterr().out == "".join(
            f"\n{body(figure)}\n" for figure in SUITE_FIGURES
        )
        assert main(["sweep", "--knob", "epsilon", "--cache-dir", cache, "--quiet"]) == 0
        assert capsys.readouterr().out == reduced["fig18b_epsilon"].table + "\n"
