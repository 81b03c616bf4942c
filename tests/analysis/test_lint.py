"""Tests for the NoCSan static pass (repro.analysis.lint).

Each fixture under ``fixtures/`` seeds one deliberate violation of one
rule; the suite asserts every rule fires on its fixture and that the real
source tree lints clean (the CI gate).  Files go through
:func:`run_engine`, source text through :func:`report_on` over
:func:`analyze_source`, and the command line through ``repro lint``.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.lint.engine import EngineReport, report_on, run_engine
from repro.analysis.lint.filepass import analyze_source
from repro.analysis.lint.rules import RULES
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _findings(source, path="<string>"):
    """The unsuppressed violations of one file's text."""
    return report_on([analyze_source(source, path)]).violations


#: fixture file (or tree, for whole-program rules) -> the rule it must trigger
FIXTURE_RULES = {
    "noc100_syntax_error.py": "NOC100",
    "noc101_ambient_rng.py": "NOC101",
    "noc102_clock.py": "NOC102",
    "noc103_set_iter.py": "NOC103",
    "noc104_mutable_default.py": "NOC104",
    "repro/noc/noc105_sleep.py": "NOC105",
    "noc111_unseeded.py": "NOC111",
    "repro/noc/noc201_layering.py": "NOC201",
    "project_noc203": "NOC201",  # the same rule through a three-module chain
    "project_noc204": "NOC204",
    "noc301_bare_except.py": "NOC301",
    "repro/noc302_float_eq.py": "NOC302",
    "repro/noc/noc405_clock_reference.py": "NOC405",
    "noc000_reasonless_noqa.py": "NOC000",
}

#: fixtures that must lint perfectly clean (the other half of each rule)
CLEAN_FIXTURES = [
    "clean/noc111_seeded.py",
    "clean/repro/noc/noc405_simprof_probe.py",
    "project_noc203_clean",
    "project_noc204_clean",
]


class TestFixtures:
    @pytest.mark.parametrize("relpath,rule", sorted(FIXTURE_RULES.items()))
    def test_fixture_triggers_its_rule(self, relpath, rule):
        report = run_engine([str(FIXTURES / relpath)])
        hit_rules = {v.rule for v in report.violations}
        assert rule in hit_rules, (
            f"{relpath} should trigger {rule}, got {sorted(hit_rules)}"
        )

    def test_every_checkable_rule_has_a_fixture(self):
        """... and a row in docs/analysis.md, whose table names no other id
        as a rule: catalogue, fixtures and documentation cannot drift."""
        assert set(FIXTURE_RULES.values()) == set(RULES)
        page = (REPO_ROOT / "docs" / "analysis.md").read_text()
        assert set(re.findall(r"^\| `(NOC\d{3})` \|", page, re.M)) == set(RULES)

    def test_fixture_tree_fails_as_a_whole(self):
        report = run_engine([str(FIXTURES)])
        assert {v.rule for v in report.violations} == set(RULES)

    @pytest.mark.parametrize("relpath", CLEAN_FIXTURES)
    def test_clean_fixture_passes(self, relpath):
        report = run_engine([str(FIXTURES / relpath)])
        assert report.ok, "\n".join(v.render() for v in report.violations)

    def test_expected_hit_counts(self):
        """Pin the per-fixture hit counts so rules neither over- nor
        under-fire (e.g. the sorted()/constructor counterexamples inside
        the fixtures must stay clean)."""
        expected = {
            "noc101_ambient_rng.py": 2,  # random.random + np.random.rand
            "noc102_clock.py": 3,  # time.time + datetime.now + os.urandom
            # literal, local var, self attribute + v2: module-level binding,
            # comprehension over a local, set.pop()
            "noc103_set_iter.py": 6,
            "noc104_mutable_default.py": 3,
            "repro/noc/noc105_sleep.py": 2,  # time.sleep + time.monotonic
            "noc111_unseeded.py": 3,  # no-arg, None seed, unseeded SeedSequence
            "repro/noc/noc201_layering.py": 2,  # repro.exec + repro.report
            "project_noc203": 1,  # one chain, anchored at the sim import
            "project_noc204": 1,  # one cycle, reported once
            # stored bound reference + default-arg reference; the call through
            # the local alias stays clean
            "repro/noc/noc405_clock_reference.py": 2,
            "noc301_bare_except.py": 1,
            "repro/noc302_float_eq.py": 2,  # == and != float constants
            "noc000_reasonless_noqa.py": 1,
        }
        for relpath, count in expected.items():
            report = run_engine([str(FIXTURES / relpath)])
            assert len(report.violations) == count, (
                f"{relpath}: {[v.render() for v in report.violations]}"
            )


class TestSuppression:
    MOD = "src/repro/mod.py"  # NOC302 looks only inside the repro package

    def test_reasoned_noqa_suppresses(self):
        code = "def f(x):\n    return x == 1.0  # noqa: NOC302 -- exact sentinel\n"
        assert _findings(code, self.MOD) == []

    def test_reasonless_noqa_becomes_noc000(self):
        code = "def f(x):\n    return x == 1.0  # noqa: NOC302\n"
        rules = [v.rule for v in _findings(code, self.MOD)]
        assert rules == ["NOC000"]

    def test_noqa_for_other_rule_does_not_suppress(self):
        code = "def f(x):\n    return x == 1.0  # noqa: NOC301 -- wrong rule\n"
        rules = [v.rule for v in _findings(code, self.MOD)]
        assert rules == ["NOC302"]

    def test_multi_rule_noqa(self):
        code = (
            "import random\n"
            "def f(x):\n"
            "    return random.random() == 1.0"
            "  # noqa: NOC101, NOC302 -- test double\n"
        )
        assert _findings(code, self.MOD) == []

    def test_suppressed_counted_in_report(self, tmp_path):
        f = tmp_path / "repro" / "mod.py"
        f.parent.mkdir()
        f.write_text("X = 1.0 == 1.0  # noqa: NOC302 -- static truth\n")
        report = run_engine([str(f)])
        assert report.ok
        assert report.suppressed == 1


class TestCleanCode:
    def test_clean_source(self):
        code = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(np.random.SeedSequence([seed]))\n"
            "    return rng.integers(0, 10)\n"
        )
        assert _findings(code) == []

    def test_src_tree_is_clean(self):
        """The acceptance gate: the real source tree lints clean."""
        report = run_engine([str(SRC)])
        assert report.ok, "\n".join(v.render() for v in report.violations)
        assert report.files > 50  # sanity: the whole tree was scanned

    def test_orchestration_may_import_simulation(self):
        code = "from repro.noc.network import Network\n"
        assert _findings(code, path="src/repro/exec/worker.py") == []

    def test_exact_assertion_in_a_test_is_not_simulation_logic(self):
        code = "def test_f(a):\n    assert a.latency.mean == 0.5\n"
        assert _findings(code, path="tests/noc/test_x.py") == []
        violations = _findings(code, path="src/repro/noc/x.py")
        assert [v.rule for v in violations] == ["NOC302"]

    def test_sim_package_importing_exec_flagged(self):
        code = "from repro.exec.spec import CellSpec\n"
        violations = _findings(code, path="src/repro/noc/helper.py")
        assert [v.rule for v in violations] == ["NOC201"]



class TestCli:
    """``repro lint``, the linter's one command line."""

    def test_list_rules_exits_zero(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{rule}  {summary}" for rule, summary in sorted(RULES.items())
        ]

    def test_clean_tree_exits_zero(self):
        assert main(["lint", str(SRC / "repro" / "metrics")]) == 0

    def test_violating_file_exits_one(self, capsys):
        assert main(["lint", str(FIXTURES / "noc301_bare_except.py")]) == 1
        assert "NOC301" in capsys.readouterr().out

    def test_report_dataclass_defaults(self):
        """An empty report, built or produced from no files, is clean."""
        for report in (EngineReport(), report_on([])):
            assert report.ok and report.files == 0 and report.suppressed == 0
            assert report.violations == [] and report.analyses == []
