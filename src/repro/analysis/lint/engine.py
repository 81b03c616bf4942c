"""Analysis engine: discovery, the per-file pass, and the whole-program
passes stitched on top.

Run shape::

    discover files -> analyze each (facts + file violations)
    -> import-graph pass (NOC203/204)
    -> noqa for project violations -> baseline filter -> report

Every file is analyzed in process, in discovery order, on every run: the
whole tree takes about a second, so there is no cache whose answer could
differ from a fresh one (docs/analysis.md, "Runtime").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.lint.filepass import FileAnalysis, FileFacts, analyze_source
from repro.analysis.lint.rules import RULES, Violation, apply_noqa
from repro.analysis.lint import project


@dataclass
class RunStats:
    """Operational numbers for the CI job summary."""

    wall_seconds: float = 0.0
    files: int = 0

    @property
    def files_per_second(self) -> float:
        return self.files / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_seconds": round(self.wall_seconds, 4),
            "files": self.files,
            "files_per_second": round(self.files_per_second, 1),
        }


@dataclass
class EngineReport:
    """Everything a caller needs: violations plus operational stats."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    files: int = 0
    stats: RunStats = field(default_factory=RunStats)
    analyses: list[FileAnalysis] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def discover_files(
    paths: Sequence[str], excludes: Sequence[str] = ()
) -> list[str]:
    """Python files under *paths*, minus any path under an exclude prefix.

    Excludes only prune directory expansion; a file named explicitly is
    always linted, even under an excluded prefix.
    """
    norm_excludes = [os.path.normpath(e) for e in excludes]

    def excluded(candidate: Path) -> bool:
        text = os.path.normpath(str(candidate))
        return any(
            text == ex or text.startswith(ex + os.sep)
            for ex in norm_excludes
        )

    found: list[str] = []
    for raw in paths:
        target = Path(raw)
        if target.is_dir():
            found.extend(
                str(c) for c in sorted(target.rglob("*.py"))
                if not excluded(c)
            )
        elif target.suffix == ".py":
            found.append(str(target))
    # dedupe, keep first-seen order
    seen: set[str] = set()
    unique: list[str] = []
    for path in found:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _analyze_path(path: str) -> FileAnalysis:
    """Read and analyze one file; an unreadable file is a NOC100 finding."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        return FileAnalysis(
            facts=FileFacts(path=path, module=""),
            violations=[Violation(
                "NOC100", path, 1, 0,
                RULES["NOC100"] + f" (unreadable: {exc})",
            )],
        )
    return analyze_source(data.decode("utf-8", errors="replace"), path)


def run_engine(
    paths: Sequence[str], *, excludes: Sequence[str] = ()
) -> EngineReport:
    """Analyze *paths* end to end (no baseline filtering; caller's job)."""
    started = time.perf_counter()
    files = discover_files(paths, excludes)
    report = EngineReport(files=len(files))
    report.stats.files = len(files)
    ordered = [_analyze_path(path) for path in files]
    report.analyses = ordered

    violations: list[Violation] = []
    suppressed = 0
    for analysis in ordered:
        violations.extend(analysis.violations)
        suppressed += analysis.suppressed

    # Whole-program passes over the facts, then per-file noqa for their
    # findings (directives live in the file each violation anchors to).
    facts = [a.facts for a in ordered]
    by_path = {a.facts.path: a.facts for a in ordered}
    for violation in project.check_project(facts):
        anchor = by_path.get(violation.path)
        if anchor is None:
            violations.append(violation)
            continue
        kept, dropped = apply_noqa(
            [violation], anchor.noqa, violation.path, scopes=anchor.scopes
        )
        violations.extend(kept)
        suppressed += dropped

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    report.violations = violations
    report.suppressed = suppressed
    report.stats.wall_seconds = time.perf_counter() - started
    return report
