"""Intra- and inter-domain contrastive losses (paper Eq. 5-7).

*Intra-domain* (Eq. 5): within one domain, original windows in a batch
attract each other (shared normal patterns) and repel their augmented
counterparts (synthetic anomalies).

*Inter-domain* (Eq. 6): a window's representation in one domain attracts
same-domain representations of other windows while repelling its own
representations from the *other* domains, forcing each domain to encode
distinct information.

Representations arrive L2-normalized from the encoder; dot products are
divided by a temperature (see config) — an implementation detail that
stabilizes ``exp`` without changing the objectives' optima.
"""

from __future__ import annotations

import numpy as np

from ..nn.tensor import Tensor, stack

__all__ = ["intra_domain_loss", "inter_domain_loss", "total_contrastive_loss"]


def _pairwise_exp(a: Tensor, b: Tensor, temperature: float) -> Tensor:
    """``exp(a_i . b_j / temperature)`` for all batch pairs — (B, B)."""
    return ((a @ b.transpose()) * (1.0 / temperature)).exp()


def intra_domain_loss(r: Tensor, r_aug: Tensor, temperature: float = 0.2) -> Tensor:
    """Eq. 5 averaged over the batch for one domain.

    Parameters
    ----------
    r, r_aug:
        Representations of the original and augmented windows,
        each of shape ``(batch, length)``.
    """
    batch = r.shape[0]
    positives = _pairwise_exp(r, r, temperature)  # originals vs originals
    negatives = _pairwise_exp(r, r_aug, temperature)  # originals vs augmented
    # sim(r_i, r_i^+) = sum_{j != i} exp(r_i . r_j): mask the diagonal.
    off_diagonal = 1.0 - Tensor(np.eye(batch, dtype=r.data.dtype))
    pos_term = (positives * off_diagonal).sum(axis=1)
    neg_term = negatives.sum(axis=1)
    loss = -((pos_term / (pos_term + neg_term)).log())
    return loss.mean()


def inter_domain_loss(
    representations: dict[str, Tensor], temperature: float = 0.2
) -> Tensor:
    """Eq. 6 averaged over batch and domains.

    ``representations`` maps each domain to its ``(batch, length)``
    original-window representations.  With a single active domain the
    term is zero by construction (no cross-domain negatives exist).
    """
    domains = list(representations)
    if len(domains) < 2:
        first = representations[domains[0]]
        return (first * 0.0).sum()
    losses = []
    for domain in domains:
        r = representations[domain]
        batch = r.shape[0]
        positives = _pairwise_exp(r, r, temperature)
        off_diagonal = 1.0 - Tensor(np.eye(batch, dtype=r.data.dtype))
        pos_term = (positives * off_diagonal).sum(axis=1)
        # Negatives: same window index, different domain (elementwise dots).
        neg_parts = []
        for other in domains:
            if other == domain:
                continue
            dots = (r * representations[other]).sum(axis=1) * (1.0 / temperature)
            neg_parts.append(dots.exp())
        neg_term = stack(neg_parts, axis=0).sum(axis=0)
        losses.append(-((pos_term / (pos_term + neg_term)).log()).mean())
    return stack(losses, axis=0).mean()


def total_contrastive_loss(
    originals: dict[str, Tensor],
    augmented: dict[str, Tensor],
    alpha: float = 0.4,
    temperature: float = 0.2,
    use_intra: bool = True,
    use_inter: bool = True,
) -> Tensor:
    """Eq. 7: ``alpha * inter + (1 - alpha) * intra``.

    The intra term is averaged over domains.  Ablations can disable
    either term; the remaining term keeps its Eq. 7 weight so parameter
    studies over ``alpha`` stay interpretable.
    """
    domains = list(originals)
    terms = []
    if use_intra:
        intra = stack(
            [intra_domain_loss(originals[d], augmented[d], temperature) for d in domains],
            axis=0,
        ).mean()
        terms.append(intra * (1.0 - alpha))
    if use_inter:
        terms.append(inter_domain_loss(originals, temperature) * alpha)
    if not terms:
        raise ValueError("at least one loss term must be enabled")
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total
