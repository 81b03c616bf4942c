"""Report emitter: the machine-readable JSON report behind ``--json``."""

from __future__ import annotations

from typing import Any

from repro.analysis.lint.rules import LINT_VERSION, Violation


def report_to_json(
    violations: list[Violation],
    *,
    files: int,
    suppressed: int,
) -> dict[str, Any]:
    """Stable JSON structure for ``--json`` output and snapshot tests."""
    return {
        "tool": "nocsan",
        "version": LINT_VERSION,
        "files": files,
        "violations": [v.to_dict() for v in violations],
        "counts": {"new": len(violations), "suppressed": suppressed},
    }
