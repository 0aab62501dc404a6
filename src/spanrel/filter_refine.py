"""Filter-and-refine: prune candidates to the top K by a learned ranking
score, then enrich the survivors.

Candidates come as an (N, D) matrix or as a CandidateGrid, whose N cells
are ranked through the factored first layer of the ranking feed-forward
without being built; only the kept rows ever are.  Either way the score's
last layer is numerics.scalar_head, which gives equal rows equal scores,
so ties go to the lower index as top_k_select promises.  The valid mask
is applied once, in ranking_scores.

The refine step runs two attention blocks in order: a cross-attention pass
over the token embeddings (the survivors read from the sentence) and a
self-attention pass among the survivors followed by a feed-forward update.
All three updates are plain residual adds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    NEG_SENTINEL,
    AttentionWeights,
    FeedForwardParams,
    feed_forward,
    linear,
    multi_head_attention,
    relu,
    scalar_head,
)
from .representation import CandidateGrid


@dataclass(frozen=True)
class FilterResult:
    """Top-K selection over N candidates.

    kept_indices are original candidate indices in ascending order (exactly
    the K best ranking scores among valid candidates, ties to the lower
    index); representations holds the corresponding rows after refinement;
    ranking_scores covers all N candidates, with invalid ones forced to the
    sentinel.  read_attention, when present, is the cross-attention of the
    last refine pass, shaped (heads, K, L).
    """

    kept_indices: tuple[int, ...]
    representations: np.ndarray
    ranking_scores: np.ndarray
    read_attention: np.ndarray | None = None


def ranking_scores(
    z: np.ndarray | CandidateGrid,
    filter_params: FeedForwardParams,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """Scalar ranking score per candidate; invalid candidates get the sentinel."""
    if isinstance(z, CandidateGrid):
        scores = z.rank(filter_params)
    else:
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ValueError("need at least one candidate representation")
        hidden = relu(linear(z, filter_params.w1, filter_params.b1))
        scores = scalar_head(hidden, filter_params) + filter_params.b2[0]
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != scores.shape:
            raise ValueError("valid mask length does not match candidates")
        scores = np.where(valid, scores, NEG_SENTINEL)
    return scores


def top_k_select(
    z: np.ndarray | CandidateGrid, scores: np.ndarray, k: int
) -> FilterResult:
    """Keep the k highest-scoring valid candidates (score above the sentinel).

    Ties break toward the lower index; k larger than the valid count clamps.
    Kept rows are returned in ascending original-index order.  Selection
    is linear: argpartition finds the m-th best score, every score above
    it is kept, and the lowest-index scores equal to it fill the rest.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be positive")
    m = min(k, int((scores > NEG_SENTINEL).sum()))
    if m == 0:
        kept = np.zeros(0, dtype=np.intp)
    else:
        cut = scores[np.argpartition(-scores, m - 1)[m - 1]]
        above = scores > cut
        above[np.flatnonzero(scores == cut)[: m - int(above.sum())]] = True
        kept = np.flatnonzero(above)
    if isinstance(z, CandidateGrid):
        rows = z.rows(kept)
    else:
        rows = np.asarray(z, dtype=np.float64)[kept]
    return FilterResult(
        kept_indices=tuple(kept.tolist()),
        representations=rows,
        ranking_scores=scores,
    )


def read(
    z_f: np.ndarray, tokens: np.ndarray, params: AttentionWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Residual cross-attention of the survivors over the token embeddings.

    Returns (updated, attn) with attn shaped (heads, K, L); the attention is
    what the dump-attention export writes out.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise ValueError("token matrix must be non-empty")
    out, attn = multi_head_attention(z_f, tokens, params)
    return z_f + out, attn


def process(
    z_f: np.ndarray, attn_params: AttentionWeights, ffn_params: FeedForwardParams
) -> np.ndarray:
    """Residual self-attention among survivors, then a residual feed-forward."""
    z_f = np.asarray(z_f, dtype=np.float64)
    if z_f.shape[0] < 1:
        raise ValueError("need at least one survivor")
    attended, _ = multi_head_attention(z_f, z_f, attn_params)
    z1 = z_f + attended
    return z1 + feed_forward(z1, ffn_params)


def filter_and_refine(
    z: np.ndarray | CandidateGrid,
    tokens: np.ndarray,
    k: int,
    filter_params: FeedForwardParams,
    read_params: AttentionWeights,
    process_attn: AttentionWeights,
    process_ffn: FeedForwardParams,
    valid: np.ndarray | None = None,
    depth: int = 1,
) -> FilterResult:
    """Rank, keep top-k, then apply read/process `depth` times."""
    scores = ranking_scores(z, filter_params, valid)
    selected = top_k_select(z, scores, k)
    reps = selected.representations
    attn = None
    if reps.shape[0] > 0:
        for _ in range(depth):
            reps, attn = read(reps, tokens, read_params)
            reps = process(reps, process_attn, process_ffn)
    return FilterResult(
        kept_indices=selected.kept_indices,
        representations=reps,
        ranking_scores=scores,
        read_attention=attn,
    )
