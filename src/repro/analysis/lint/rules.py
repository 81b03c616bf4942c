"""Rule catalogue and shared lint primitives.

A rule is in the catalogue only while it is its contract's one guard: some
one-line edit to ``src`` breaks the contract and no tier-1 test notices, or
the rule still carries a reasoned suppression in ``src``.  The table in
``docs/analysis.md`` gives each rule's mutant, and names the tier-1 test
that holds every contract whose rule was retired.

* **D — determinism (NOC1xx)**: per-file entropy/ordering rules
  (NOC101–105, NOC111).
* **L — layering (NOC2xx)**: the project import-graph pass (NOC201
  sim→orchestration chains of every length, NOC204 cycles).
* **S — safety (NOC3xx)**: bare except, float equality.
* **C — contracts (NOC4xx)**: the cycle-domain clock checker (NOC405).

Any rule is suppressible per line with ``# noqa: NOC### -- <reason>``;
the reason is mandatory (a reasonless ``noqa`` is itself a violation,
NOC000).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Engine version; embedded in the JSON report.
LINT_VERSION = "2.1.0"

RULES: dict[str, str] = {
    "NOC000": "suppression without a reason: write `# noqa: NOC### -- why`",
    "NOC100": "file does not parse",
    "NOC101": "ambient RNG call: draw from an injected np.random.Generator",
    "NOC102": "wall-clock/entropy source inside the simulator",
    "NOC103": "iteration over an unordered set in simulation code",
    "NOC104": "mutable default argument",
    "NOC105": "sleep/timer call inside a simulation package: stay cycle-driven",
    "NOC111": "RNG seeded from ambient entropy: derive the seed from the spec",
    "NOC201": "simulation package reaches an orchestration layer",
    "NOC204": "top-level import cycle between repro modules",
    "NOC301": "bare `except:` clause",
    "NOC302": "float equality comparison in simulation logic",
    "NOC405": "clock reference in the cycle domain: route timing through "
              "repro.telemetry.simprof",
}


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location.

    ``context`` carries the stripped source line the violation anchors to;
    the JSON report prints it beside the location.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    context: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Violation":
        return cls(
            rule=str(data["rule"]),
            path=str(data["path"]),
            line=int(data["line"]),
            col=int(data["col"]),
            message=str(data["message"]),
            context=str(data.get("context", "")),
        )


#: Sim-altitude packages: hardware models plus their embedded observers.
SIM_PACKAGES = (
    "repro.noc",
    "repro.channels",
    "repro.rl",
    "repro.telemetry",
    "repro.faults",
)
ORCHESTRATION_PACKAGES = ("repro.exec", "repro.cli", "repro.report")

#: The cycle domain proper (NOC405): the packages whose wall time the
#: simprof probes attribute.  Any *reference* to a clock function here —
#: stored, aliased, or passed around, not just called — defeats the
#: bit-identical-runs contract, because only repro.telemetry.simprof may
#: own a clock that runs inside ``Network.step``.
CYCLE_DOMAIN_PACKAGES = ("repro.noc", "repro.rl")


def in_packages(module: str, packages: tuple[str, ...]) -> bool:
    """Whether dotted *module* lives under any of *packages*."""
    return any(module == p or module.startswith(p + ".") for p in packages)


def module_name(path: Path) -> str:
    """Dotted module path of *path*, anchored at the innermost `repro` dir."""
    parts = list(path.parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    name = ".".join(parts)
    if name.endswith(".py"):
        name = name[:-3]
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


_NOQA_RE = re.compile(
    r"#\s*noqa:\s*(?P<rules>NOC\d{3}(?:\s*,\s*NOC\d{3})*)"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)

#: lineno -> (rules, reason-or-None, directive column)
Directives = dict[int, tuple[list[str], str | None, int]]


def scan_noqa(source: str) -> Directives:
    """All ``# noqa: NOC###`` directives in *source*, keyed by line."""
    directives: Directives = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match:
            rules = [r.strip() for r in match.group("rules").split(",")]
            directives[lineno] = (rules, match.group("reason"), match.start())
    return directives


def apply_noqa(
    violations: list[Violation],
    directives: Directives,
    path: str,
) -> tuple[list[Violation], int]:
    """Filter suppressed violations; reasonless suppressions become NOC000."""
    kept: list[Violation] = []
    suppressed = 0
    flagged_reasonless: set[int] = set()
    for violation in violations:
        directive = directives.get(violation.line)
        if directive is None or violation.rule not in directive[0]:
            kept.append(violation)
            continue
        suppressed += 1
        if directive[1] is None and violation.line not in flagged_reasonless:
            flagged_reasonless.add(violation.line)
            kept.append(Violation(
                "NOC000", path, violation.line, directive[2],
                RULES["NOC000"] + f" (suppressing {violation.rule})",
            ))
    return kept, suppressed


def source_line(lines: list[str], lineno: int) -> str:
    """Stripped, length-capped text of 1-indexed *lineno* (violation context)."""
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()[:160]
    return ""
