"""Shared by the counting tests of this package."""

import pytest


@pytest.fixture(autouse=True)
def no_ambient_sanitizer(monkeypatch):
    """REPRO_SANITIZE=1 attaches a checker to every Network; its calls and
    enum loads are not the loop's."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
