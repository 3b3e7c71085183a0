"""DRAG — Discord Range-Aware Gathering (Yankov, Keogh & Rebbapragada,
KAIS 2008).

Two-phase discord search with a range threshold ``r``:

1. *Candidate gathering*: scan subsequences once, keeping a set of
   candidates that have no non-trivial neighbor within ``r`` so far.
   A subsequence landing within ``r`` of a candidate eliminates both
   itself and that candidate from discord contention.
2. *Refinement*: compute each surviving candidate's true nearest-neighbor
   distance and keep those at distance >= ``r``.

If ``r`` is at most the true discord distance, DRAG provably returns the
true discord; if ``r`` was chosen too large, it fails (returns ``None``)
and the caller (MERLIN) retries with a smaller ``r``.

Under the default kernel modes (``repro.discord.kernels``) phase 1 runs
as blocked matrix sweeps against a preallocated candidate buffer — one
GEMM per block against the surviving candidates plus one intra-block
GEMM, no Python-level candidate-list rebuilds — and phase 2 is a single
batched nearest-neighbor scan.  Block-level elimination is *order-free*:
any pair at distance < ``r`` with non-trivial separation eliminates both
members, which can only prune **more** than the sequential scan (every
such elimination certifies a nearest neighbor below ``r``), never the
true discord; phase 2's exact filter makes the final answer identical.
The original sequential scan is kept verbatim as the equivalence oracle,
reached when tests patch ``kernels._DISCORD_MODE`` to ``"reference"``.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .brute import Discord
from .distance import znorm_subsequences
from .kernels import (
    SeriesContext,
    as_context,
    correct_tiny_distances,
    default_exclusion,
    distance_profiles,
    resolve_mode,
    snap_argmax,
)

__all__ = ["drag"]

#: Phase-1 sweep width: one GEMM of ``PHASE1_BLOCK x |candidates|`` plus
#: one intra-block GEMM per sweep.
PHASE1_BLOCK = 512
#: Phase-2 refinement batch: candidates scanned per chunked NN sweep.
PHASE2_BLOCK = 128


def drag(
    series: np.ndarray,
    length: int,
    r: float,
    exclusion: int | None = None,
    *,
    ctx: SeriesContext | None = None,
    preprune: np.ndarray | None = None,
) -> Discord | None:
    """Run DRAG at subsequence ``length`` with range threshold ``r``.

    Returns the top discord, or ``None`` when no subsequence has its
    nearest non-trivial neighbor at distance >= ``r``.

    Parameters
    ----------
    ctx:
        Optional shared :class:`~repro.discord.kernels.SeriesContext`
        (MERLIN threads one across its whole length schedule).
    preprune:
        Optional boolean mask of subsequences already known to have a
        non-trivial neighbor closer than ``r`` (e.g. from a previous
        length's discord profile); they are skipped outright.  Only
        honored by the kernel paths — the reference oracle ignores it.
    """
    if exclusion is None:
        exclusion = default_exclusion(length, "discord")
    mode = resolve_mode(None, length, max(len(np.asarray(series)) - length + 1, 0))
    if mode == "reference":
        return _drag_reference(series, length, r, exclusion)
    return _drag_blocked(series, length, r, exclusion, mode, ctx, preprune)


def _drag_blocked(
    series: np.ndarray,
    length: int,
    r: float,
    exclusion: int,
    mode: str,
    ctx: SeriesContext | None,
    preprune: np.ndarray | None,
) -> Discord | None:
    context = as_context(series, ctx)
    count = context.count(length)
    if count <= exclusion:
        obs.incr("discord.drag.degenerate")
        return None
    z = context.znorm(length)
    sq_norms = context.znorm_sq_norms(length)
    r_sq = r * r

    # ------------------------------------------------------------------
    # Phase 1: blocked candidate gathering into a preallocated buffer.
    # ------------------------------------------------------------------
    buffer = np.empty(count, dtype=np.int64)
    n_cand = 0
    for block_start in range(0, count, PHASE1_BLOCK):
        block_stop = min(block_start + PHASE1_BLOCK, count)
        idx = np.arange(block_start, block_stop)
        if preprune is not None:
            idx = idx[~preprune[block_start:block_stop]]
            if idx.size == 0:
                continue
        z_block = z[idx]
        killed = np.zeros(idx.size, dtype=bool)
        if n_cand:
            cand = buffer[:n_cand]
            sq = (
                sq_norms[idx][:, None]
                + sq_norms[cand][None, :]
                - 2.0 * (z_block @ z[cand].T)
            )
            hit = (sq < r_sq) & (np.abs(idx[:, None] - cand[None, :]) >= exclusion)
            killed |= hit.any(axis=1)
            cand_dead = hit.any(axis=0)
            if cand_dead.any():
                survivors = cand[~cand_dead]
                n_cand = survivors.size
                buffer[:n_cand] = survivors
        sq_in = (
            sq_norms[idx][:, None]
            + sq_norms[idx][None, :]
            - 2.0 * (z_block @ z_block.T)
        )
        hit_in = (sq_in < r_sq) & (np.abs(idx[:, None] - idx[None, :]) >= exclusion)
        killed |= hit_in.any(axis=1)
        fresh = idx[~killed]
        buffer[n_cand : n_cand + fresh.size] = fresh
        n_cand += fresh.size

    obs.observe("discord.drag.candidates", n_cand)
    if count:
        obs.observe("discord.drag.prune_rate", 1.0 - n_cand / count)
    if n_cand == 0:
        obs.incr("discord.drag.failures")
        return None

    # ------------------------------------------------------------------
    # Phase 2: one batched NN scan over the surviving candidates.
    # ------------------------------------------------------------------
    candidates = buffer[:n_cand]
    columns = np.arange(count)
    nn = np.empty(n_cand)
    for chunk_start in range(0, n_cand, PHASE2_BLOCK):
        chunk = candidates[chunk_start : chunk_start + PHASE2_BLOCK]
        sq = distance_profiles(context, length, chunk, mode=mode)
        band = np.abs(chunk[:, None] - columns[None, :]) < exclusion
        sq[band] = np.inf
        correct_tiny_distances(context, length, chunk, sq)
        nn[chunk_start : chunk_start + chunk.size] = np.sqrt(
            np.maximum(sq.min(axis=1), 0.0)
        )
    # Candidates whose zone bans every pair have no neighbor at all (the
    # reference skips them); candidates with a neighbor inside the range
    # fail the >= r filter.  Tie-snapped argmax in ascending candidate
    # order keeps the winner identical across kernel modes.
    eligible = np.isfinite(nn) & (nn >= r)
    if not eligible.any():
        obs.incr("discord.drag.failures")
        return None
    scored = np.where(eligible, nn, -np.inf)
    best = snap_argmax(scored)
    return Discord(
        index=int(candidates[best]), length=length, distance=float(nn[best])
    )


def _drag_reference(
    series: np.ndarray, length: int, r: float, exclusion: int
) -> Discord | None:
    """The original sequential DRAG, verbatim — the equivalence oracle."""
    z = znorm_subsequences(series, length)
    count = len(z)
    if count <= exclusion:
        obs.incr("discord.drag.degenerate")
        return None

    # ------------------------------------------------------------------
    # Phase 1: candidate gathering.
    # ------------------------------------------------------------------
    candidates: list[int] = []
    candidate_matrix: list[np.ndarray] = []
    r_sq = r * r
    for j in range(count):
        survives = True
        if candidates:
            matrix = np.asarray(candidate_matrix)
            sq = ((matrix - z[j]) ** 2).sum(axis=1)
            indices = np.asarray(candidates)
            nontrivial = np.abs(indices - j) >= exclusion
            hit = nontrivial & (sq < r_sq)
            if hit.any():
                survives = False
                keep = ~hit
                candidates = [c for c, k in zip(candidates, keep) if k]
                candidate_matrix = [m for m, k in zip(candidate_matrix, keep) if k]
        if survives:
            candidates.append(j)
            candidate_matrix.append(z[j])
    # Candidate-set size and prune rate are what make the Table IV
    # pruning argument measurable: a healthy r leaves a tiny candidate
    # set out of `count` subsequences.
    obs.observe("discord.drag.candidates", len(candidates))
    if count:
        obs.observe("discord.drag.prune_rate", 1.0 - len(candidates) / count)
    if not candidates:
        obs.incr("discord.drag.failures")
        return None

    # ------------------------------------------------------------------
    # Phase 2: refinement — exact NN distance per candidate.
    # ------------------------------------------------------------------
    survivors: list[tuple[int, float]] = []
    all_indices = np.arange(count)
    for c in candidates:
        nontrivial = np.abs(all_indices - c) >= exclusion
        sq = ((z[nontrivial] - z[c]) ** 2).sum(axis=1)
        if sq.size == 0:
            continue
        nn = float(np.sqrt(max(sq.min(), 0.0)))
        if nn < r:
            continue  # had a neighbor inside the range after all
        survivors.append((c, nn))
    if not survivors:
        obs.incr("discord.drag.failures")
        return None
    # Same tie-snapped selection as the kernel paths (see snap_argmax):
    # mutual-NN pairs are exact ties, and each mode's rounding would
    # otherwise pick a different winner.
    best = snap_argmax(np.asarray([nn for _, nn in survivors]))
    c, nn = survivors[best]
    return Discord(index=int(c), length=length, distance=nn)
