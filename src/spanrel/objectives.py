"""Forward-mode training objectives and gold alignment.

No gradients or optimizers here: the losses exist so their documented
properties (hinge geometry, NLL gradient shape, additivity) can be
verified numerically, with finite differences standing in for autodiff.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .pipeline import ForwardResult, RunConfig, forward
from .representation import SpanGrid, TypeInventory


@dataclass(frozen=True)
class GoldAnnotation:
    """Reference structure for one sentence.

    entities are (start, end, type name) with inclusive ends; relations
    are ((hs, he), (ts, te), relation name) whose argument spans must
    appear among the entities.  Gold entities must be pairwise disjoint.
    """

    entities: tuple[tuple[int, int, str], ...] = ()
    relations: tuple[tuple[tuple[int, int], tuple[int, int], str], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for start, end, _ in self.entities:
            if start > end or start < 0:
                raise ValueError(f"bad gold span ({start}, {end})")
            if (start, end) in seen:
                raise ValueError(f"duplicate gold span ({start}, {end})")
            seen.add((start, end))
        for (a, b), (c, d) in (
            ((e1[0], e1[1]), (e2[0], e2[1]))
            for i, e1 in enumerate(self.entities)
            for e2 in self.entities[i + 1 :]
        ):
            if max(a, c) <= min(b, d):
                raise ValueError("gold entities overlap")
        spans = {(s, e) for s, e, _ in self.entities}
        for head, tail, name in self.relations:
            for arg in (head, tail):
                if tuple(arg) not in spans:
                    raise ValueError(
                        f"relation {name!r} argument {arg} is not a gold entity"
                    )


@dataclass(frozen=True)
class AlignedLabels:
    """Candidate-level supervision derived from gold.

    Class labels index the inventory (0 = null); keep labels are the 0/1
    targets for the filtering stage, 1 exactly where a candidate matched.
    """

    entity_labels: np.ndarray
    relation_labels: np.ndarray
    entity_keep: np.ndarray
    relation_keep: np.ndarray


def align_gold(
    spans: Sequence[tuple[int, int]],
    pairs: Sequence[tuple[int, int]],
    gold: GoldAnnotation,
    inventory: TypeInventory,
    length: int,
) -> AlignedLabels:
    """Project gold onto candidate lists by exact boundary match.

    A span candidate gets its gold entity type iff boundaries match
    exactly, else null; a pair gets a gold relation type iff both
    argument boundaries match, else null.  Keep labels mark the matches.
    """
    for start, end, _ in gold.entities:
        if end >= length:
            raise ValueError(f"gold span ({start}, {end}) outside sentence")
    by_span = {(s, e): inventory.entity_index(t) for s, e, t in gold.entities}
    by_args = {
        (tuple(h), tuple(t)): inventory.relation_index(name)
        for h, t, name in gold.relations
    }
    ent = np.zeros(len(spans), dtype=np.int64)
    keep_e = np.zeros(len(spans), dtype=np.int64)
    for i, sp in enumerate(spans):
        label = by_span.get(tuple(sp))
        if label is not None:
            ent[i] = label
            keep_e[i] = 1
    rel = np.zeros(len(pairs), dtype=np.int64)
    keep_r = np.zeros(len(pairs), dtype=np.int64)
    for p, (h, t) in enumerate(pairs):
        label = by_args.get((tuple(spans[h]), tuple(spans[t])))
        if label is not None:
            rel[p] = label
            keep_r[p] = 1
    return AlignedLabels(ent, rel, keep_e, keep_r)


def ranking_loss(scores: np.ndarray, keep: np.ndarray, alpha: float = 1.0) -> float:
    """Pairwise hinge over (positive, negative) score pairs.

    Sum of max(0, f_n - f_p + alpha); zero exactly when every positive
    clears every negative by the margin.  No positives or no negatives
    gives zero.
    """
    if alpha < 0:
        raise ValueError("margin must be non-negative")
    scores = np.asarray(scores, dtype=np.float64)
    keep = np.asarray(keep)
    if scores.shape != keep.shape:
        raise ValueError("scores and labels must align")
    pos = scores[keep == 1]
    neg = scores[keep == 0]
    if pos.size == 0 or neg.size == 0:
        return 0.0
    gaps = neg[:, None] - pos[None, :] + alpha
    return float(np.maximum(0.0, gaps).sum())


def classification_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the gold labels; K=0 gives 0."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("logits must be 2-D")
    k, c = logits.shape
    if labels.shape != (k,):
        raise ValueError("one label per row required")
    if k == 0:
        return 0.0
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(k), labels]
    return float(nll.mean())


@dataclass(frozen=True)
class LossBreakdown:
    ranking_entity: float
    ranking_relation: float
    classification_entity: float
    classification_relation: float

    @property
    def total(self) -> float:
        return (
            self.ranking_entity
            + self.ranking_relation
            + self.classification_entity
            + self.classification_relation
        )


def loss_from_forward(
    result: ForwardResult, gold: GoldAnnotation, margin: float = 1.0
) -> LossBreakdown:
    """Assemble the four loss terms from an existing forward pass.

    Ranking losses supervise the full candidate grids (invalid
    candidates sit at the sentinel score and can never activate a
    hinge); classification losses cover the kept candidates only, since
    pruned ones were never classified.
    """
    inst = result.instance
    spans = SpanGrid(inst.length, result.max_span_width)
    all_spans = list(zip(spans.starts.tolist(), spans.ends.tolist()))
    grid = align_gold(all_spans, [], gold, inst.inventory, inst.length)
    # the K*K head-major pair grid; its span indices refer to kept spans
    k = len(inst.spans)
    all_pairs = [(h, t) for h in range(k) for t in range(k)]
    grid_pairs = align_gold(list(inst.spans), all_pairs, gold, inst.inventory, inst.length)
    rank_ent = ranking_loss(result.span_filter.ranking_scores, grid.entity_keep, margin)
    rank_rel = ranking_loss(
        result.pair_filter.ranking_scores, grid_pairs.relation_keep, margin
    )
    kept = list(result.span_filter.kept_indices)
    cls_ent = classification_loss(inst.entity_logits, grid.entity_labels[kept])
    kept_pairs = list(result.pair_filter.kept_indices)
    cls_rel = classification_loss(
        inst.relation_logits, grid_pairs.relation_labels[kept_pairs]
    )
    return LossBreakdown(rank_ent, rank_rel, cls_ent, cls_rel)


def total_loss(
    tokens: Sequence[str],
    params: ModelParams,
    gold: GoldAnnotation,
    config: RunConfig | None = None,
) -> tuple[float, LossBreakdown]:
    """Forward pass plus unweighted sum of the four loss terms."""
    if config is None:
        config = RunConfig()
    result = forward(tokens, params, config)
    breakdown = loss_from_forward(result, gold, config.margin)
    return breakdown.total, breakdown


def finite_difference_gradient(
    loss_fn: Callable[[np.ndarray], float],
    theta: np.ndarray,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        bump = flat.copy()
        bump[i] += epsilon
        hi = loss_fn(bump.reshape(theta.shape))
        bump[i] -= 2 * epsilon
        lo = loss_fn(bump.reshape(theta.shape))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("loss is not finite near the evaluation point")
        out[i] = (hi - lo) / (2 * epsilon)
    return grad


__all__ = [
    "AlignedLabels",
    "GoldAnnotation",
    "LossBreakdown",
    "align_gold",
    "classification_loss",
    "finite_difference_gradient",
    "loss_from_forward",
    "ranking_loss",
    "total_loss",
]
