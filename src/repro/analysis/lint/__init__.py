"""NoCSan: project-specific determinism/layering/safety/contract lint.

A two-pass, whole-program analyzer (see ``docs/analysis.md``, which gives
every rule the one-line mutant only it catches):

* per-file AST rules (:mod:`.filepass`: NOC101–105, NOC111, NOC301/302,
  NOC405),
* a project import-graph pass (:mod:`.project`: layering NOC201, cycles
  NOC204),
* infrastructure: a violation baseline (:mod:`.baseline`) and the JSON
  report (:mod:`.emit`).

The v1 API (``lint_source``, ``lint_paths``, ``main``, ``RULES``,
``Violation``, ``LintReport``) is preserved; new callers should prefer
:func:`repro.analysis.lint.engine.run_engine`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.lint.baseline import Baseline
from repro.analysis.lint.emit import report_to_json
from repro.analysis.lint.engine import EngineReport, report_on, run_engine
from repro.analysis.lint.filepass import analyze_source
from repro.analysis.lint.rules import (
    LINT_VERSION,
    RULES,
    LintReport,
    Violation,
)

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


def add_cli_arguments(
    parser: argparse.ArgumentParser,
    *,
    default_paths: list[str] | None = None,
    default_baseline: str | None = None,
    default_excludes: list[str] | None = None,
) -> None:
    """Install the lint CLI surface on *parser* (shared with ``repro lint``)."""
    parser.add_argument(
        "paths", nargs="*", default=list(default_paths or ["src"]),
        help=f"files or directories to lint (default: {default_paths or ['src']})",
    )
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="PATH",
                        help="path prefix to skip (repeatable)")
    parser.add_argument("--baseline", metavar="FILE", default=default_baseline,
                        help="accepted-violations file; only new findings fail")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline: report every violation")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline from the current findings")
    parser.add_argument("--json", metavar="FILE", dest="json_out",
                        help="write a JSON report ('-' for stdout)")
    parser.set_defaults(default_excludes=list(default_excludes or []))


def build_arg_parser(prog: str = "python -m repro.analysis.lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Project-specific determinism/layering/safety/contract lint.",
    )
    add_cli_arguments(parser)
    return parser


def _write_report(text: str, destination: str) -> None:
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

    baseline_path = None if args.no_baseline else args.baseline
    if args.update_baseline and not baseline_path:
        print("--update-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    excludes = list(getattr(args, "default_excludes", [])) + args.exclude
    report: EngineReport = run_engine(args.paths or ["src"], excludes=excludes)

    if args.update_baseline:
        Baseline.from_violations(report.violations).save(baseline_path)
        print(
            f"baseline {baseline_path} updated: "
            f"{len(report.violations)} accepted violations",
            file=sys.stderr,
        )
        return 0

    baselined = 0
    fresh = report.violations
    if baseline_path:
        if not os.path.exists(baseline_path):
            print(
                f"baseline file {baseline_path} not found "
                "(create it with --update-baseline)",
                file=sys.stderr,
            )
            return 2
        fresh, baselined = Baseline.load(baseline_path).filter(report.violations)

    if args.json_out:
        payload = report_to_json(
            fresh, files=report.files, suppressed=report.suppressed,
            baselined=baselined,
        )
        _write_report(json.dumps(payload, indent=2, sort_keys=True), args.json_out)

    for violation in fresh:
        print(violation.render())
    print(
        f"{report.files} files, {len(fresh)} violations, "
        f"{report.suppressed} suppressed, {baselined} baselined",
        file=sys.stderr,
    )
    return 1 if fresh else 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_arg_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
