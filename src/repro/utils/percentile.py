"""Exact percentiles of small integer samples, without numpy.

``np.percentile`` on a list of latencies builds an array, partitions it and
loads ``numpy.ma`` (to ask whether the list is masked) — 1.3 MB of
resident modules for three numbers per run.  :func:`percentile` is the
same arithmetic in plain Python, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable


def percentile(samples: Iterable[int | float], q: float) -> float:
    """``float(np.percentile(samples, q))`` under numpy 2's default
    ``linear`` method, bit for bit.

    The virtual index is ``(n - 1) * q / 100``; the two neighbours are
    blended with numpy's two-sided lerp, ``a + (b - a) * g`` below
    ``g = 0.5`` and ``b - (b - a) * (1 - g)`` from it on, which is exact at
    both ends.  An index at or past the last sample takes the maximum.
    """
    ordered = sorted(samples)
    if not 0 <= q <= 100:
        raise ValueError("percentiles must be in the range [0, 100]")
    last = len(ordered) - 1
    index = last * (q / 100)
    if index >= last:
        return float(ordered[-1])
    below = math.floor(index)
    gamma = index - below
    a, b = ordered[below], ordered[below + 1]
    diff = b - a
    if gamma >= 0.5:
        return float(b - diff * (1 - gamma))
    return float(a + diff * gamma)
