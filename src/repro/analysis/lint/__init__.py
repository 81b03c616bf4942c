"""NoCSan: project-specific determinism/layering/safety/contract lint.

A two-pass, whole-program analyzer (see ``docs/analysis.md``, which gives
every rule the one-line mutant only it catches):

* per-file AST rules (:mod:`.filepass`: NOC101–105, NOC111, NOC301/302,
  NOC405),
* a project import-graph pass (:mod:`.project`: layering NOC201, cycles
  NOC204),
* infrastructure: the engine and its one report (:mod:`.engine`:
  :func:`~.engine.run_engine` over paths, :func:`~.engine.report_on` over
  :func:`~.filepass.analyze_source` results) and the JSON report
  (:mod:`.emit`).

Its one command line is ``python -m repro lint``: :mod:`repro.cli` defines
the subcommand's options and defaults without loading this package, and
runs :func:`run_cli`.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.lint.emit import report_to_json
from repro.analysis.lint.engine import run_engine
from repro.analysis.lint.rules import RULES

__all__ = ["run_cli"]


def _write_json(text: str, destination: str) -> None:
    if destination == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def run_cli(args: argparse.Namespace) -> int:
    """``repro lint``: exit 1 on any finding, 0 when clean."""
    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0

    report = run_engine(args.paths, excludes=args.exclude)

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
