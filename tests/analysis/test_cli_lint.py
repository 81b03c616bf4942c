"""CLI tests for ``repro lint`` and the baseline-gated workflow.

These drive :func:`repro.cli.main` end to end — argument defaults, the
committed repo baseline, exit codes, and report emission — exactly as CI
invokes them.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

DIRTY = "def f(xs=[]):\n    return xs\n"  # NOC104


class TestRepoGate:
    def test_repo_lints_clean_against_committed_baseline(self, monkeypatch):
        """The CI gate: `repro lint` with its defaults (src tests,
        committed baseline, fixture excludes) exits 0."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0

    def test_committed_baseline_is_empty(self):
        """The repo starts from zero accepted violations; additions need
        an explicit review of lint-baseline.json."""
        raw = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert raw == {"format": 1, "entries": []}


class TestExitCodes:
    def test_violations_exit_one(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "repro/noc302_float_eq.py"), "--no-baseline"]
        )
        assert code == 1
        assert "NOC302" in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("A = 1\n")
        code = main(
            ["lint", str(target), "--baseline", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_list_rules_exits_zero(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "NOC405" in capsys.readouterr().out


class TestBaselineWorkflow:
    def test_update_then_gate(self, tmp_path):
        """--update-baseline accepts the current findings; the next run
        is green and a regression still fails."""
        target = tmp_path / "mod.py"
        target.write_text(DIRTY)
        baseline = str(tmp_path / "baseline.json")

        code = main(
            ["lint", str(target), "--baseline", baseline, "--update-baseline"]
        )
        assert code == 0
        assert main(["lint", str(target), "--baseline", baseline]) == 0

        # a second, new finding is not covered by the baseline
        target.write_text(DIRTY + "def g(ys={}):\n    return ys\n")
        assert main(["lint", str(target), "--baseline", baseline]) == 1


class TestReports:
    def test_json_and_sarif_reports_written(self, tmp_path):
        """The JSON report (the id predates the SARIF emitter's retirement)."""
        json_out = tmp_path / "report.json"
        code = main(
            [
                "lint", str(FIXTURES / "repro/noc302_float_eq.py"), "--no-baseline",
                "--json", str(json_out),
            ]
        )
        assert code == 1

        payload = json.loads(json_out.read_text())
        assert payload["tool"] == "nocsan"
        assert payload["files"] == 1
        assert payload["counts"]["new"] == 2
        assert {v["rule"] for v in payload["violations"]} == {"NOC302"}
