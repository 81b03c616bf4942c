"""CLI tests for ``repro lint``, the linter's one command line.

These drive :func:`repro.cli.main` end to end — argument defaults, exit
codes, and report emission — exactly as CI invokes them.
"""

import importlib.util
import json
from pathlib import Path

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


class TestRepoGate:
    def test_repo_lints_clean_against_committed_baseline(self, monkeypatch):
        """The CI gate: `repro lint` with its defaults (src tests, fixture
        excludes) exits 0; a finding is fixed or carries `# noqa` (the id
        predates the violation baseline's removal)."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0


class TestOneCommand:
    def test_defaults_are_spelled_once(self):
        """``repro lint`` lints ``src tests`` minus the fixtures, and an
        ``--exclude`` of the user's adds to that exclude."""
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src", "tests"]
        assert args.exclude == ["tests/analysis/fixtures"]
        args = build_parser().parse_args(["lint", "src", "--exclude", "src/x"])
        assert args.paths == ["src"]
        assert args.exclude == ["tests/analysis/fixtures", "src/x"]

    def test_no_second_entry_point(self):
        for module in ("repro.analysis.lint.__main__", "repro.analysis.lint_options"):
            assert importlib.util.find_spec(module) is None, module


class TestExitCodes:
    def test_violations_exit_one(self, capsys):
        code = main(["lint", str(FIXTURES / "repro/noc302_float_eq.py")])
        assert code == 1
        assert "NOC302" in capsys.readouterr().out

    def test_list_rules_exits_zero(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "NOC405" in capsys.readouterr().out

    def test_fixture_tree_exits_one(self):
        """Files named one by one: a named file is linted even under the
        default fixture exclude."""
        assert main(["lint", *map(str, sorted(FIXTURES.rglob("*.py")))]) == 1


class TestReports:
    def test_json_and_sarif_reports_written(self, tmp_path):
        """The JSON report (the id predates the SARIF emitter's retirement)."""
        json_out = tmp_path / "report.json"
        code = main(
            [
                "lint", str(FIXTURES / "repro/noc302_float_eq.py"),
                "--json", str(json_out),
            ]
        )
        assert code == 1

        payload = json.loads(json_out.read_text())
        assert payload["tool"] == "nocsan"
        assert payload["files"] == 1
        assert payload["counts"]["new"] == 2
        assert {v["rule"] for v in payload["violations"]} == {"NOC302"}
