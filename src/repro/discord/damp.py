"""DAMP-style left-discord search (Lu et al., KDD 2022 lineage).

DAMP finds the subsequence with the largest *left* nearest-neighbor
distance (its neighbor must lie entirely in the past) without computing
the full left matrix profile: each subsequence searches backward in
doubling chunks and abandons as soon as it finds any past neighbor
closer than the best discord so far — that subsequence can no longer be
the discord, so its exact distance is irrelevant.

The returned discord is exact (verified against
:func:`repro.discord.streaming.left_matrix_profile` in the tests);
the profile it returns is an upper-bound profile whose maximum equals
the true maximum.

Under the kernel modes each backward block is scored as one matrix-vector
product against the cached z-norm matrix (``||a-b||^2 = ||a||^2 +
||b||^2 - 2 a.b``) instead of materializing ``block - z[i]``; the
doubling/early-abandon control flow — DAMP's actual contribution — is
unchanged, and ``distances_computed`` counts the same work either way.
The original subtract-and-square loop is kept verbatim as the reference
oracle, reached when tests patch ``kernels._DISCORD_MODE`` to
``"reference"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brute import Discord
from .distance import znorm_subsequences
from .kernels import SeriesContext, as_context, resolve_mode

__all__ = ["DampResult", "damp"]


@dataclass
class DampResult:
    """DAMP output: the exact left-discord and search statistics."""

    discord: Discord | None
    profile: np.ndarray  # upper bounds on left-NN distances
    distances_computed: int  # pairwise distances evaluated (work measure)


def damp(
    series: np.ndarray,
    length: int,
    train_size: int | None = None,
    initial_chunk: int | None = None,
    *,
    ctx: SeriesContext | None = None,
) -> DampResult:
    """Exact left-discord discovery with backward doubling search.

    Parameters
    ----------
    train_size:
        Number of leading points assumed normal; discord candidates
        start after it (default ``4 * length``).
    initial_chunk:
        First backward chunk size in subsequences (default ``2 * length``).
    ctx:
        Optional shared :class:`~repro.discord.kernels.SeriesContext`.
    """
    series = np.asarray(series, dtype=np.float64)
    mode = resolve_mode(None, length, max(len(series) - length + 1, 0))
    if mode == "reference":
        return _damp_reference(series, length, train_size, initial_chunk)

    context = as_context(series, ctx)
    z = context.znorm(length)
    sq_norms = context.znorm_sq_norms(length)
    count = context.count(length)
    if train_size is None:
        train_size = 4 * length
    start = max(train_size, length)
    if start >= count:
        return DampResult(discord=None, profile=np.zeros(0), distances_computed=0)
    if initial_chunk is None:
        initial_chunk = 2 * length

    profile = np.zeros(count)
    best_value = -np.inf
    best_index = -1
    work = 0

    for i in range(start, count):
        # Eligible past: subsequences ending before i starts.
        past_end = i - length + 1
        if past_end <= 0:
            continue
        best_here = np.inf
        chunk = min(initial_chunk, past_end)
        lo = past_end - chunk
        abandoned = False
        while True:
            block_lo = lo if lo > 0 else 0
            # One matvec per block instead of materializing block - z[i].
            dots = z[block_lo:past_end] @ z[i]
            sq = sq_norms[block_lo:past_end] + sq_norms[i] - 2.0 * dots
            work += past_end - block_lo
            best_here = min(best_here, float(np.sqrt(max(sq.min(), 0.0))))
            if best_here < best_value:
                # Cannot be the discord; record the bound and move on.
                abandoned = True
                break
            if lo == 0:
                break
            # Double the lookback.
            chunk *= 2
            past_end = lo
            lo = max(past_end - chunk, 0)
        profile[i] = best_here
        if not abandoned and best_here > best_value:
            best_value = best_here
            best_index = i

    discord = (
        Discord(index=best_index, length=length, distance=best_value)
        if best_index >= 0 and np.isfinite(best_value)
        else None
    )
    return DampResult(discord=discord, profile=profile, distances_computed=work)


def _damp_reference(
    series: np.ndarray,
    length: int,
    train_size: int | None,
    initial_chunk: int | None,
) -> DampResult:
    """The original DAMP loop, verbatim — the equivalence oracle."""
    z = znorm_subsequences(series, length)
    count = len(z)
    if train_size is None:
        train_size = 4 * length
    start = max(train_size, length)
    if start >= count:
        return DampResult(discord=None, profile=np.zeros(0), distances_computed=0)
    if initial_chunk is None:
        initial_chunk = 2 * length

    profile = np.zeros(count)
    best_value = -np.inf
    best_index = -1
    work = 0

    for i in range(start, count):
        # Eligible past: subsequences ending before i starts.
        past_end = i - length + 1
        if past_end <= 0:
            continue
        best_here = np.inf
        chunk = min(initial_chunk, past_end)
        lo = past_end - chunk
        abandoned = False
        while True:
            block = z[lo:past_end] if lo > 0 else z[:past_end]
            sq = ((block - z[i]) ** 2).sum(axis=1)
            work += len(block)
            best_here = min(best_here, float(np.sqrt(max(sq.min(), 0.0))))
            if best_here < best_value:
                # Cannot be the discord; record the bound and move on.
                abandoned = True
                break
            if lo == 0:
                break
            # Double the lookback.
            chunk *= 2
            past_end = lo
            lo = max(past_end - chunk, 0)
        profile[i] = best_here
        if not abandoned and best_here > best_value:
            best_value = best_here
            best_index = i

    discord = (
        Discord(index=best_index, length=length, distance=best_value)
        if best_index >= 0 and np.isfinite(best_value)
        else None
    )
    return DampResult(discord=discord, profile=profile, distances_computed=work)
