"""The latency percentiles are numpy's, to the bit.

:func:`repro.utils.percentile.percentile`, behind
:meth:`LatencySummary.from_samples`, computes in plain Python what
``np.percentile`` (numpy 2, default ``linear`` method) computes, so that a
run need not load ``numpy.ma`` to summarise three numbers.  ``np.percentile``
stays here as the oracle.  The samples are integer latencies with many ties,
as a light load produces.  numpy 1's virtual index ``n*q + (1 - q) - 1``
is the same number in exact arithmetic but rounds differently in the last
ulp for about one draw in twenty; the pinned example catches it.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.metrics.latency import LatencySummary
from repro.noc.statistics import NetworkStatistics
from repro.utils.percentile import percentile

QUANTILES = (50, 95, 99)


@st.composite
def latency_samples(draw) -> list[int]:
    """1 to 3 000 integer latencies, drawn directly (small lists, shrinkable)
    or as a seeded bulk draw over a narrow span (long lists, many ties)."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 60), min_size=1, max_size=200))
    size = draw(st.integers(1, 3000))
    span = draw(st.sampled_from((3, 40, 600, 20_000)))
    base = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (base + rng.integers(0, span, size=size, endpoint=True)).tolist()


def _oracle(samples: list[int], q: float) -> float:
    return float(np.percentile(samples, q))


def _statistics_of(samples: list[int]) -> NetworkStatistics:
    stats = NetworkStatistics(num_routers=1)
    for latency in samples:
        stats.record_completion(latency, 0)
    return stats


@settings(max_examples=150, deadline=None)
@given(latency_samples(), st.floats(0.0, 100.0))
@example([0, 7, 14], 95.0)  # numpy 1's index rounds this one differently
def test_percentiles_equal_numpy_bit_for_bit(samples, q):
    summary = LatencySummary.from_samples(samples)
    stats = _statistics_of(samples)
    assert stats.latencies == samples
    assert (summary.median, summary.p95, summary.p99) == tuple(
        _oracle(samples, p) for p in QUANTILES
    )
    for p in (*QUANTILES, q):
        assert percentile(stats.latencies, p) == _oracle(samples, p), p


@settings(max_examples=100, deadline=None)
@given(latency_samples())
def test_summary_mean_and_maximum_equal_numpy(samples):
    summary = LatencySummary.from_samples(samples)
    arr = np.asarray(samples)
    assert summary.mean == float(arr.mean())
    assert summary.maximum == int(arr.max())
    assert type(summary.maximum) is int
    assert summary.count == len(samples)
