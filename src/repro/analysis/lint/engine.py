"""Analysis engine: discovery, the per-file pass, and the whole-program
passes stitched on top.

Run shape::

    discover files -> analyze each (facts + file violations)
    -> import-graph pass (NOC201/204)
    -> noqa for project violations -> report

Every file is analyzed in process, in discovery order, on every run: the
whole tree takes about a second, so there is no cache whose answer could
differ from a fresh one (docs/analysis.md, "Runtime").
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.lint.filepass import FileAnalysis, FileFacts, analyze_source
from repro.analysis.lint.rules import RULES, Violation, apply_noqa
from repro.analysis.lint import project


@dataclass
class EngineReport:
    """The one report of a lint run: the findings and the files behind them."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
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
    """Analyze *paths* end to end."""
    return report_on([_analyze_path(p) for p in discover_files(paths, excludes)])


def report_on(analyses: list[FileAnalysis]) -> EngineReport:
    """The per-file findings of *analyses* plus the whole-program passes
    over their facts, sorted."""
    violations: list[Violation] = []
    suppressed = 0
    for analysis in analyses:
        violations.extend(analysis.violations)
        suppressed += analysis.suppressed

    # Per-file noqa for the project findings (directives live in the file
    # each violation anchors to).
    by_path = {a.facts.path: a.facts for a in analyses}
    for violation in project.check_project([a.facts for a in analyses]):
        kept, dropped = apply_noqa(
            [violation], by_path[violation.path].noqa, violation.path
        )
        violations.extend(kept)
        suppressed += dropped

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return EngineReport(
        violations=violations, suppressed=suppressed,
        files=len(analyses), analyses=analyses,
    )
