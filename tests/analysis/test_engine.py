"""Engine tests: discovery and run-to-run determinism."""

from pathlib import Path

import pytest

from repro.analysis.lint.engine import discover_files, run_engine

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


class TestDiscovery:
    def test_direct_file_and_directory(self, tmp_path):
        (tmp_path / "a.py").write_text("A = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("B = 2\n")
        (sub / "notes.txt").write_text("not python\n")
        found = discover_files([str(tmp_path)])
        assert [Path(p).name for p in found] == ["a.py", "b.py"]
        assert discover_files([str(tmp_path / "a.py")]) == [
            str(tmp_path / "a.py")
        ]

    def test_exclude_prefix_skips_subtree(self, tmp_path):
        keep = tmp_path / "keep.py"
        keep.write_text("A = 1\n")
        skipped = tmp_path / "vendor" / "dep.py"
        skipped.parent.mkdir()
        skipped.write_text("B = 2\n")
        found = discover_files(
            [str(tmp_path)], excludes=[str(tmp_path / "vendor")]
        )
        assert found == [str(keep)]

    def test_explicit_file_wins_over_exclude(self, tmp_path):
        target = tmp_path / "vendor" / "dep.py"
        target.parent.mkdir()
        target.write_text("B = 2\n")
        found = discover_files(
            [str(target)], excludes=[str(tmp_path / "vendor")]
        )
        assert found == [str(target)]

    def test_overlapping_paths_dedupe(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("A = 1\n")
        found = discover_files([str(tmp_path), str(target)])
        assert found == [str(target)]


class TestDeterminism:
    @pytest.mark.parametrize("tree", [SRC, FIXTURES], ids=["src", "fixtures"])
    def test_two_runs_agree(self, tree):
        """No cache, no pool: every run analyzes every discovered file, in
        discovery order, and reports the same sorted findings (none in
        ``src``, one or more per rule in the fixture tree)."""
        files = discover_files([str(tree)])
        first = run_engine([str(tree)])
        second = run_engine([str(tree)])
        assert first.files == second.files == len(files) > 20
        assert [a.facts.path for a in first.analyses] == files
        assert first.violations == second.violations
        assert first.violations == sorted(
            first.violations, key=lambda v: (v.path, v.line, v.col, v.rule)
        )
        assert first.suppressed == second.suppressed
        assert first.ok == (tree == SRC)
