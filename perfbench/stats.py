"""The reporting rule for latency percentiles."""

from __future__ import annotations

__all__ = ["supported_percentile", "CANDIDATE_PERCENTILES"]

CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def supported_percentile(count: int, candidates=CANDIDATE_PERCENTILES) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it.

    A percentile ``p`` of ``count`` samples has ``count * (1 - p/100)``
    samples above it; below ten, its value is set by a handful of
    outliers and is not reported.  ``None`` when even the median lacks
    ten samples beyond it.
    """
    best = None
    for q in sorted(candidates):
        if count * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            best = q
    return best
