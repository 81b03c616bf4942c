"""Fixtures for the chaos drills.

When ``REPRO_CHAOS_ARTIFACTS`` is set (CI's test job points it at a
directory it uploads on failure), every drill keeps its cache, journal and
chaos ledger under that directory instead of pytest's tmp_path, so a red
run leaves the full post-mortem behind.
"""

import os
from pathlib import Path

import pytest


@pytest.fixture
def drill_dir(tmp_path, request):
    base = os.environ.get("REPRO_CHAOS_ARTIFACTS")
    if not base:
        return tmp_path
    keep = Path(base) / request.node.name
    keep.mkdir(parents=True, exist_ok=True)
    return keep
