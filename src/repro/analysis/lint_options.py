"""The lint command line, apart from the lint engine.

``repro`` builds its parser (every subcommand's options) on each start, so
the ``lint`` subcommand's options live here, in a module that imports
nothing but argparse: defining them must not load the engine (``ast``,
``tokenize`` and the rule passes) into a process that runs a simulation.
"""

from __future__ import annotations

import argparse


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
