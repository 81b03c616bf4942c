"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    CP,
    CPD,
    EB,
    FaultConfig,
    INTELLINOC,
    PowerConfig,
    SECDED_BASELINE,
    SimulationConfig,
)
from repro.noc.network import Network
from repro.traffic.trace import Trace, TraceEvent


@pytest.fixture(autouse=True, scope="session")
def isolated_result_cache(tmp_path_factory):
    """Keep the suite out of the user's real result cache.

    Results are keyed by spec hash, not by code, so a home cache filled by
    an older simulator would be served to any test that reaches
    ``default_cache_dir()``; one directory per session is enough.  Session
    scope, so that module- and class-scoped fixtures that simulate with
    ``use_cache=True`` are redirected too.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.getbasetemp() / "repro-cache")
        )
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def power_config():
    return PowerConfig()


@pytest.fixture
def fault_config():
    return FaultConfig()


def make_network(
    technique=SECDED_BASELINE,
    events=(),
    seed=7,
    faults: FaultConfig | None = None,
    **config_kwargs,
) -> Network:
    """Build a small network over an explicit event list."""
    config = SimulationConfig(
        technique=technique,
        seed=seed,
        faults=faults if faults is not None else FaultConfig(),
        **config_kwargs,
    )
    return Network(config, Trace(list(events), name="test"))


def single_packet_events(src=0, dst=9, size=4, cycle=0, count=1, gap=50):
    """A few identical packets, spaced out."""
    return [
        TraceEvent(cycle + i * gap, src, dst, size) for i in range(count)
    ]


ALL_TECHNIQUES = [SECDED_BASELINE, EB, CP, CPD, INTELLINOC]
