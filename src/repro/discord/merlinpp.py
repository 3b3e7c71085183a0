"""MERLIN++ — MERLIN accelerated with a metric-index nearest-neighbor
search (Nakamura, Mercer, Imamura & Keogh, DAMI 2023).

The published MERLIN++ replaces DRAG's linear scans with Orchard's
algorithm.  We implement the same idea with a pivot-based triangle-
inequality index: for each length, distances from every z-normalized
subsequence to a pivot are computed once; candidate refinement then
visits neighbors in ascending lower-bound order
``|d(pivot, j) - d(pivot, c)| <= d(c, j)`` and abandons as soon as the
bound exceeds the best distance found, skipping most exact distance
computations.  Results are exact and match :func:`repro.discord.merlin`.
"""

from __future__ import annotations

import numpy as np

from .brute import Discord
from .distance import znorm_subsequences
from .kernels import SeriesContext, _reference_active
from .merlin import MerlinResult

__all__ = ["merlinpp"]


def _refine_candidate(
    z: np.ndarray,
    c: int,
    pivot_distances: np.ndarray,
    order: np.ndarray,
    exclusion: int,
    block: int = 256,
) -> float:
    """Exact NN distance of candidate ``c`` using pivot lower bounds."""
    bounds = np.abs(pivot_distances - pivot_distances[c])
    # Visit subsequences by ascending lower bound; a block whose smallest
    # bound already exceeds the best exact distance cannot improve it.
    ranked = order[np.argsort(bounds[order], kind="stable")]
    best_sq = np.inf
    for start in range(0, len(ranked), block):
        chunk = ranked[start : start + block]
        if bounds[chunk[0]] ** 2 >= best_sq:
            break
        chunk = chunk[np.abs(chunk - c) >= exclusion]
        if chunk.size == 0:
            continue
        sq = ((z[chunk] - z[c]) ** 2).sum(axis=1)
        best_sq = min(best_sq, float(sq.min()))
    return float(np.sqrt(max(best_sq, 0.0))) if np.isfinite(best_sq) else np.inf


def merlinpp(
    series: np.ndarray,
    min_length: int,
    max_length: int,
    step: int = 1,
    exclusion_factor: float = 1.0,
) -> MerlinResult:
    """MERLIN++-style exact variable-length discord discovery.

    Same output contract as :func:`repro.discord.merlin.merlin`; the
    per-length search runs candidate gathering with an adaptive ``r``
    seeded from previous lengths, then pivot-indexed refinement.
    """
    series = np.asarray(series, dtype=np.float64)
    lengths = [
        l for l in range(min_length, max_length + 1, step) if 2 * l <= len(series)
    ]
    result = MerlinResult()
    # Share prefix-sum moments across the length sweep; reference mode
    # keeps the original per-length normalization.
    ctx = None if _reference_active() else SeriesContext(series)
    recent_norm: list[float] = []
    for position, length in enumerate(lengths):
        exclusion = max(int(round(exclusion_factor * length)), 1)
        z = znorm_subsequences(series, length) if ctx is None else ctx.znorm(length)
        count = len(z)
        if count <= exclusion:
            continue

        # Pivot index: one exact distance column reused for all pruning.
        pivot = 0
        pivot_sq = ((z - z[pivot]) ** 2).sum(axis=1)
        pivot_distances = np.sqrt(np.maximum(pivot_sq, 0.0))
        order = np.arange(count)

        scale = float(np.sqrt(length))
        if position == 0:
            r = 2.0 * scale
        elif position < 5:
            r = 0.99 * recent_norm[-1] * scale
        else:
            window = np.asarray(recent_norm[-5:])
            r = float(window.mean() - 2.0 * window.std()) * scale
        r = max(r, 1e-6)

        found: Discord | None = None
        while found is None and r >= 1e-9:
            # Candidate gathering with pivot pre-pruning: a subsequence
            # whose pivot distance differs from every candidate's by >= r
            # cannot be within r of any of them.
            candidates: list[int] = []
            for j in range(count):
                survives = True
                if candidates:
                    cand = np.asarray(candidates)
                    possible = np.abs(pivot_distances[cand] - pivot_distances[j]) < r
                    nontrivial = np.abs(cand - j) >= exclusion
                    check = cand[possible & nontrivial]
                    if check.size:
                        sq = ((z[check] - z[j]) ** 2).sum(axis=1)
                        hit = sq < r * r
                        if hit.any():
                            survives = False
                            eliminated = set(check[hit].tolist())
                            candidates = [c for c in candidates if c not in eliminated]
                if survives:
                    candidates.append(j)

            best: Discord | None = None
            for c in candidates:
                nn = _refine_candidate(z, c, pivot_distances, order, exclusion)
                if nn < r or not np.isfinite(nn):
                    continue
                if best is None or nn > best.distance:
                    best = Discord(index=int(c), length=length, distance=nn)
            if best is None:
                r *= 0.5 if position == 0 else 0.9
            else:
                found = best
        if found is None:
            continue
        result.discords.append(found)
        recent_norm.append(found.distance / scale)
    return result
