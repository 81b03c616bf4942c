"""Tests for report generation."""

import pytest

from repro.config import INTELLINOC, SECDED_BASELINE
from repro.core.experiment import ExperimentRunner
from repro.report.charts import bar_chart, horizontal_bar
from repro.report.markdown import CampaignReport, write_report
from repro.report.paper import REDUCED_GRID


class TestCharts:
    def test_bar_scales_to_width(self):
        assert horizontal_bar(1.0, 1.0, width=10) == "#" * 10
        assert horizontal_bar(0.5, 1.0, width=10) == "#" * 5

    def test_bar_clamps_overflow(self):
        assert len(horizontal_bar(5.0, 1.0, width=10)) == 10

    def test_bar_validation(self):
        with pytest.raises(ValueError):
            horizontal_bar(1.0, 0.0)
        with pytest.raises(ValueError):
            horizontal_bar(-1.0, 1.0)
        with pytest.raises(ValueError):
            horizontal_bar(1.0, 1.0, width=0)

    def test_chart_labels_aligned(self):
        chart = bar_chart({"short": 1.0, "a-long-label": 0.5}, width=10)
        lines = chart.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_reference_uses_equals(self):
        chart = bar_chart({"base": 1.0, "x": 0.8}, reference="base")
        base_line = next(l for l in chart.splitlines() if l.startswith("base"))
        assert "=" in base_line and "#" not in base_line

    def test_empty_chart_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})


class TestCampaignReport:
    @pytest.fixture(scope="class")
    def runner(self):
        # Two cells of the paper table's reduced grid (test_paper.py),
        # shared with it through the suite's result cache.
        runner = ExperimentRunner(
            duration=REDUCED_GRID.duration,
            seed=REDUCED_GRID.seed,
            benchmarks=["swa"],
            techniques=[SECDED_BASELINE, INTELLINOC],
            pretrain_cycles=REDUCED_GRID.pretrain,
            use_cache=True,
        )
        runner.run_campaign()
        return runner

    def test_report_contains_all_figures(self, runner):
        text = CampaignReport(runner).build()
        for fig in ("Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13",
                    "Fig. 14", "Fig. 15", "Fig. 16"):
            assert fig in text

    def test_report_carries_verdicts(self, runner):
        text = CampaignReport(runner).build()
        assert "paper 1.67x" in text  # energy-efficiency headline
        assert "shape" in text.lower()

    def test_write_report_roundtrip(self, runner, tmp_path):
        path = write_report(runner, tmp_path / "report.md")
        content = path.read_text()
        assert content.startswith("# IntelliNoC reproduction")
        assert "```" in content
