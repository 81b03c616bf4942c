"""NoCSan: project-specific determinism/layering/safety/contract lint.

A two-pass, whole-program analyzer (see ``docs/analysis.md``, which gives
every rule the one-line mutant only it catches):

* per-file AST rules (:mod:`.filepass`: NOC101–105, NOC111, NOC301/302,
  NOC405),
* a project import-graph pass (:mod:`.project`: layering NOC201, cycles
  NOC204),
* infrastructure: the JSON report (:mod:`.emit`).

The v1 API (``lint_source``, ``lint_paths``, ``main``, ``RULES``,
``Violation``, ``LintReport``) is preserved; new callers should prefer
:func:`repro.analysis.lint.engine.run_engine`.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.lint.emit import report_to_json
from repro.analysis.lint.engine import EngineReport, report_on, run_engine
from repro.analysis.lint.filepass import analyze_source
from repro.analysis.lint.rules import (
    LINT_VERSION,
    RULES,
    LintReport,
    Violation,
)
from repro.analysis.lint_options import add_cli_arguments

__all__ = [
    "LINT_VERSION",
    "RULES",
    "Violation",
    "LintReport",
    "lint_source",
    "lint_paths",
    "run_engine",
    "main",
]


def lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Lint one file's text; returns unsuppressed violations."""
    return report_on([analyze_source(source, path)]).violations


def lint_paths(paths: list[str]) -> LintReport:
    """Lint every ``.py`` file under *paths*, whole-program passes included."""
    engine_report = run_engine(paths)
    return LintReport(
        violations=engine_report.violations,
        suppressed=engine_report.suppressed,
        files=engine_report.files,
    )


def build_arg_parser(prog: str = "python -m repro.analysis.lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Project-specific determinism/layering/safety/contract lint.",
    )
    add_cli_arguments(parser)
    return parser


def _write_json(text: str, destination: str) -> None:
    if destination == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def run_cli(args: argparse.Namespace) -> int:
    """The v2 CLI behind both ``python -m`` and ``repro lint``."""
    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0

    excludes = list(getattr(args, "default_excludes", [])) + args.exclude
    report: EngineReport = run_engine(args.paths or ["src"], excludes=excludes)

    if args.json_out:
        payload = report_to_json(
            report.violations, files=report.files, suppressed=report.suppressed
        )
        _write_json(json.dumps(payload, indent=2, sort_keys=True), args.json_out)

    for violation in report.violations:
        print(violation.render())
    print(
        f"{report.files} files, {len(report.violations)} violations, "
        f"{report.suppressed} suppressed",
        file=sys.stderr,
    )
    return 1 if report.violations else 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_arg_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
