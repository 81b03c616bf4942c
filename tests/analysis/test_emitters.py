"""Emitter tests: JSON report stability."""

import json
from pathlib import Path

import pytest

from repro.analysis.lint.emit import report_to_json
from repro.analysis.lint.engine import run_engine
from repro.analysis.lint.rules import Violation

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def fixture_report():
    """A real engine run with plenty of violations to emit."""
    return run_engine([str(FIXTURES)])


def _sample_violations():
    return [
        Violation("NOC302", "src/repro/a.py", 3, 8,
                  "float equality", context="if x == 1.0:"),
        Violation("NOC000", "tests/b.py", 1, 0,
                  "reasonless noqa", context="y = 2  # noqa: NOC302"),
    ]


class TestJsonReport:
    def test_round_trip_is_stable(self, fixture_report):
        payload = report_to_json(
            fixture_report.violations,
            files=fixture_report.files,
            suppressed=fixture_report.suppressed,
        )
        text = json.dumps(payload, indent=2, sort_keys=True)
        # serialize -> parse -> serialize is a fixed point
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
        # and every violation survives the dict round trip intact
        for raw, violation in zip(
            payload["violations"], fixture_report.violations
        ):
            assert Violation.from_dict(raw) == violation

    def test_counts_block(self):
        violations = _sample_violations()
        payload = report_to_json(violations, files=7, suppressed=2)
        assert payload["tool"] == "nocsan"
        assert payload["files"] == 7
        assert payload["counts"] == {"new": 2, "suppressed": 2}

    def test_two_identical_runs_emit_identical_json(self):
        kwargs = dict(files=3, suppressed=0)
        first = report_to_json(_sample_violations(), **kwargs)
        second = report_to_json(_sample_violations(), **kwargs)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
