"""CLI + report integration: report generation from a tiny campaign."""

from repro.config import INTELLINOC, SECDED_BASELINE
from repro.core.experiment import ExperimentRunner
from repro.report import CampaignReport, write_report
from repro.report.paper import REDUCED_GRID


class TestReportEndToEnd:
    def test_report_from_live_campaign(self, tmp_path):
        # Cells of the paper table's reduced grid, shared through the cache.
        runner = ExperimentRunner(
            duration=REDUCED_GRID.duration,
            seed=REDUCED_GRID.seed,
            benchmarks=["swa"],
            techniques=[SECDED_BASELINE, INTELLINOC],
            pretrain_cycles=REDUCED_GRID.pretrain,
            use_cache=True,
        )
        path = write_report(runner, tmp_path / "campaign.md")
        text = path.read_text()
        # The report self-describes its configuration.
        assert f"{REDUCED_GRID.duration} cycles" in text
        assert "swa" in text
        # Charts render with the baseline highlighted.
        assert "=" * 5 in text
        # The verdict lines compare against the paper.
        assert "paper" in text
