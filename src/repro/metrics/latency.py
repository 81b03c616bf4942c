"""Latency distribution summaries."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.percentile import percentile


@dataclass(frozen=True)
class LatencySummary:
    """End-to-end packet latency distribution of one run."""

    mean: float
    median: float
    p95: float
    p99: float
    maximum: int
    count: int

    @classmethod
    def empty(cls) -> "LatencySummary":
        """Summary of a run that completed no packets (saturated network)."""
        inf = float("inf")
        return cls(mean=inf, median=inf, p95=inf, p99=inf, maximum=0, count=0)

    @classmethod
    def from_samples(cls, latencies: list[int]) -> "LatencySummary":
        if not latencies:
            raise ValueError("no latency samples")
        # Integer samples sum exactly, so this is numpy's mean to the bit.
        # Sorted once: timsort re-checks a sorted list in one linear pass.
        ordered = sorted(latencies)
        return cls(
            mean=sum(ordered) / len(ordered),
            median=percentile(ordered, 50),
            p95=percentile(ordered, 95),
            p99=percentile(ordered, 99),
            maximum=ordered[-1],
            count=len(ordered),
        )

    def __str__(self) -> str:
        return (
            f"latency mean={self.mean:.1f} p50={self.median:.0f} "
            f"p95={self.p95:.0f} p99={self.p99:.0f} max={self.maximum} "
            f"(n={self.count})"
        )
