"""Smoke tests: the cheap examples must run end to end.

Only the sub-second examples run here; the campaign-scale ones are
exercised manually / by the benchmark harness.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 300) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestCheapExamples:
    def test_adaptive_ecc_demo(self):
        out = run_example("adaptive_ecc_demo.py")
        assert "SECDED" in out and "DECTED" in out
        assert "corrected=True" in out

    def test_fault_injection_study(self):
        out = run_example("fault_injection_study.py")
        assert "aging-cliff" in out and "transient-storm" in out
        assert "delivery ratio" in out
        assert "west_first" in out

    def test_adaptive_routing_demo(self):
        out = run_example("adaptive_routing_demo.py")
        assert "delivered 30/30 packets around the failed router" in out

    def test_examples_all_importable(self):
        """Every example compiles (no syntax/import-time errors)."""
        import py_compile

        for script in sorted(EXAMPLES.glob("*.py")):
            py_compile.compile(str(script), doraise=True)
