"""Filter-and-refine: prune candidates to the top K by a learned ranking
score, then enrich the survivors.

Candidates come as a CandidateGrid, whose N cells are ranked through the
factored first layer of the ranking feed-forward without being built; only
the kept rows ever are.  The score's last layer is numerics.scalar_head,
which gives equal rows equal scores, so ties go to the lower index as
top_k_select promises; it also selects rows of a plain (N, D) matrix.  The
valid mask is applied once, in ranking_scores.

The refine step runs two attention blocks in order: a cross-attention pass
over the token embeddings (the survivors read from the sentence) and a
self-attention pass among the survivors followed by a feed-forward update.
All three updates are plain residual adds.

Every step runs once over a stack of S equal-length sentences on a
leading axis; one sentence is a stack of one.  Each sentence keeps its own
top k of its own N cells: a stack's kept_indices are each sentence's m
indices into its own grid, one sentence after another.  A stack whose
sentences would keep different counts raises RaggedStackError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    NEG_SENTINEL,
    AttentionWeights,
    FeedForwardParams,
    feed_forward,
    multi_head_attention,
)
from .representation import CandidateGrid


class RaggedStackError(ValueError):
    """The sentences of a stack would keep different numbers of candidates."""


@dataclass(frozen=True)
class FilterResult:
    """Top-K selection over N candidates, or over each sentence of a stack.

    kept_indices are original candidate indices in ascending order (exactly
    the K best ranking scores among valid candidates, ties to the lower
    index); representations holds the corresponding rows after refinement;
    ranking_scores covers all N candidates, with invalid ones forced to the
    sentinel.  read_attention, when present, is the cross-attention of the
    last refine pass, shaped (heads, K, L).  A stack's arrays carry a
    leading axis of S, and its kept_indices are the sentences' end to end.
    """

    kept_indices: tuple[int, ...]
    representations: np.ndarray
    ranking_scores: np.ndarray
    read_attention: np.ndarray | None = None


def ranking_scores(
    z: CandidateGrid,
    filter_params: FeedForwardParams,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """Scalar ranking score per grid cell; invalid cells get the sentinel."""
    scores = z.rank(filter_params)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != scores.shape:
            raise ValueError("valid mask length does not match candidates")
        scores = np.where(valid, scores, NEG_SENTINEL)
    return scores


def top_k_select(
    z: np.ndarray | CandidateGrid, scores: np.ndarray, k: int
) -> FilterResult:
    """Keep the k highest-scoring valid candidates (score above the sentinel),
    of each sentence when z is a stacked grid and scores is (S, N).

    Ties break toward the lower index; k larger than the valid count clamps.
    Kept rows are returned in ascending original-index order.  Selection
    is linear: a partition finds the m-th best score, and the lowest-index
    scores equal to it fill the places that the higher ones leave.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be positive")
    seg = scores.reshape(-1, scores.shape[-1])  # one row per sentence
    keep = seg > NEG_SENTINEL  # every live cell, all False when m is 0
    live = np.add.reduce(keep, axis=1).tolist()
    m = min(k, max(live))
    if min(live) < m:
        raise RaggedStackError("the sentences of a stack keep different numbers of candidates")
    if m:
        cut = -np.partition(-seg, m - 1, axis=1)[:, m - 1 : m]
        keep = seg >= cut
        if np.count_nonzero(keep) > m * len(seg):  # more ties at the cut than places
            for row, values, c in zip(keep, seg, cut[:, 0]):
                ties = np.flatnonzero(values == c)  # the highest-index ties give way
                row[ties[len(ties) + m - np.count_nonzero(row) :]] = False
    kept = np.nonzero(keep)[1].reshape(*scores.shape[:-1], m)
    rows = z.rows(kept) if isinstance(z, CandidateGrid) else np.asarray(z, dtype=np.float64)[kept]
    return FilterResult(tuple(kept.ravel().tolist()), rows, scores)


def read(
    z_f: np.ndarray, tokens: np.ndarray, params: AttentionWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Residual cross-attention of the survivors over the token embeddings.

    Returns (updated, attn), attn shaped (..., heads, K, L);
    the attention is what the dump-attention export writes out.
    """
    out, attn = multi_head_attention(z_f, tokens, params)
    return z_f + out, attn


def process(
    z_f: np.ndarray, attn_params: AttentionWeights, ffn_params: FeedForwardParams
) -> np.ndarray:
    """Residual self-attention among survivors, then a residual feed-forward."""
    z_f = np.asarray(z_f, dtype=np.float64)
    attended, _ = multi_head_attention(z_f, z_f, attn_params)
    z1 = z_f + attended
    return z1 + feed_forward(z1, ffn_params)


def filter_and_refine(
    z: CandidateGrid,
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
    if reps.shape[-2] > 0:
        for _ in range(depth):
            reps, attn = read(reps, tokens, read_params)
            reps = process(reps, process_attn, process_ffn)
    return FilterResult(
        kept_indices=selected.kept_indices,
        representations=reps,
        ranking_scores=scores,
        read_attention=attn,
    )
