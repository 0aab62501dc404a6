"""Loss checks: gold alignment, hinge geometry, NLL gradients."""

from __future__ import annotations

import numpy as np
import pytest

from spanrel import (
    GoldAnnotation,
    RunConfig,
    align_gold,
    classification_loss,
    finite_difference_gradient,
    forward,
    init_params,
    loss_from_forward,
    make_rng,
    ranking_loss,
    softmax,
    total_loss,
)

from conftest import make_inventory


def test_gold_annotation_validation():
    GoldAnnotation(entities=((0, 1, "E1"), (3, 3, "E2")))
    with pytest.raises(ValueError):
        GoldAnnotation(entities=((2, 1, "E1"),))
    with pytest.raises(ValueError):
        GoldAnnotation(entities=((0, 1, "E1"), (0, 1, "E2")))
    with pytest.raises(ValueError):
        GoldAnnotation(entities=((0, 2, "E1"), (2, 3, "E2")))  # overlap
    with pytest.raises(ValueError):
        GoldAnnotation(
            entities=((0, 1, "E1"),),
            relations=(((0, 1), (4, 5), "R1"),),  # tail not a gold entity
        )


def test_align_gold_exact_boundaries():
    inv = make_inventory(2, 2)
    gold = GoldAnnotation(
        entities=((0, 1, "E1"), (3, 3, "E2")),
        relations=(((0, 1), (3, 3), "R2"),),
    )
    spans = [(0, 1), (1, 1), (3, 3), (0, 3)]
    pairs = [(0, 2), (2, 0), (1, 2)]
    aligned = align_gold(spans, pairs, gold, inv, length=5)
    assert aligned.entity_labels.tolist() == [1, 0, 2, 0]
    assert aligned.entity_keep.tolist() == [1, 0, 1, 0]
    # only the (head, tail) orientation that matches gold is labeled
    assert aligned.relation_labels.tolist() == [2, 0, 0]
    assert aligned.relation_keep.tolist() == [1, 0, 0]
    with pytest.raises(ValueError):
        align_gold(spans, pairs, gold, inv, length=3)
    with pytest.raises(KeyError):
        align_gold(spans, pairs, GoldAnnotation(entities=((0, 1, "E9"),)), inv, 5)


def test_ranking_loss_hinge_values():
    scores = np.array([3.0, 0.5, -1.0])
    keep = np.array([1, 0, 0])
    # gaps: 0.5-3+1 = -1.5 -> 0; -1-3+1 = -3 -> 0
    assert ranking_loss(scores, keep, alpha=1.0) == 0.0
    # shrink the positive so both hinges activate
    scores = np.array([0.0, 0.5, -1.0])
    expected = max(0.0, 0.5 - 0.0 + 1.0) + max(0.0, -1.0 - 0.0 + 1.0)
    assert ranking_loss(scores, keep, alpha=1.0) == pytest.approx(expected)
    # degenerate sides
    assert ranking_loss(scores, np.array([1, 1, 1])) == 0.0
    assert ranking_loss(scores, np.array([0, 0, 0])) == 0.0
    with pytest.raises(ValueError):
        ranking_loss(scores, keep, alpha=-0.5)
    with pytest.raises(ValueError):
        ranking_loss(scores, np.array([1, 0]))


def test_ranking_loss_zero_iff_margin():
    rng = make_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        scores = rng.normal(size=n)
        keep = (rng.random(n) < 0.4).astype(np.int64)
        alpha = float(rng.uniform(0.1, 2.0))
        loss = ranking_loss(scores, keep, alpha)
        pos = scores[keep == 1]
        neg = scores[keep == 0]
        if pos.size == 0 or neg.size == 0:
            assert loss == 0.0
            continue
        satisfied = all(fn - fp + alpha <= 0.0 for fn in neg for fp in pos)
        assert (loss == 0.0) == satisfied
        assert loss >= 0.0


def test_classification_loss_values():
    logits = np.array([[10.0, 0.0], [0.0, 10.0]])
    assert classification_loss(logits, np.array([0, 1])) < 1e-4
    assert classification_loss(logits, np.array([1, 0])) > 9.0
    uniform = np.zeros((3, 4))
    assert classification_loss(uniform, np.array([0, 1, 2])) == pytest.approx(
        np.log(4.0)
    )
    assert classification_loss(np.zeros((0, 4)), np.zeros(0, dtype=int)) == 0.0
    with pytest.raises(ValueError):
        classification_loss(uniform, np.array([0, 1, 4]))
    with pytest.raises(ValueError):
        classification_loss(uniform, np.array([0, 1]))


def test_classification_loss_stable_at_extremes():
    logits = np.array([[1e4, 0.0, -1e4]])
    val = classification_loss(logits, np.array([0]))
    assert np.isfinite(val) and val >= 0.0


def test_classification_gradient_is_softmax_minus_onehot():
    rng = make_rng(1)
    for _ in range(20):
        row = rng.normal(scale=3.0, size=(1, 8))
        label = int(rng.integers(0, 8))
        grad = finite_difference_gradient(
            lambda m: classification_loss(m, np.array([label])), row
        )
        onehot = np.zeros(8)
        onehot[label] = 1.0
        assert np.allclose(grad[0], softmax(row[0]) - onehot, atol=1e-6)


def test_finite_difference_gradient_quadratic():
    theta = np.array([[1.0, -2.0], [0.5, 3.0]])
    grad = finite_difference_gradient(lambda m: float((m**2).sum()), theta)
    assert np.allclose(grad, 2 * theta, atol=1e-6)
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda m: float("nan"), theta)
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda m: 0.0, theta, epsilon=0.0)


def test_loss_from_forward_terms():
    inv = make_inventory(2, 2)
    params = init_params(inv, dim=16, heads=2, max_span_width=3, seed=4)
    tokens = ("ada", "runs", "the", "lab",)
    result = forward(tokens, params)
    gold = GoldAnnotation(
        entities=((0, 0, "E1"), (3, 3, "E2")),
        relations=(((0, 0), (3, 3), "R1"),),
    )
    breakdown = loss_from_forward(result, gold)
    assert breakdown.total >= 0.0
    for term in (
        breakdown.ranking_entity,
        breakdown.ranking_relation,
        breakdown.classification_entity,
        breakdown.classification_relation,
    ):
        assert np.isfinite(term) and term >= 0.0
    # empty gold kills both ranking terms
    empty = loss_from_forward(result, GoldAnnotation())
    assert empty.ranking_entity == 0.0
    assert empty.ranking_relation == 0.0
    assert empty.classification_entity > 0.0


def test_total_loss_matches_breakdown():
    inv = make_inventory(2, 2)
    params = init_params(inv, dim=16, heads=2, max_span_width=3, seed=4)
    gold = GoldAnnotation(entities=((1, 1, "E1"),))
    tokens = ("one", "two", "three")
    total, breakdown = total_loss(tokens, params, gold)
    assert total == pytest.approx(breakdown.total)
    config = RunConfig(k_span=4, depth=2)
    for margin in (0.25, 1.0, 4.0):
        total, _ = total_loss(tokens, params, gold, config, margin=margin)
        assert total == loss_from_forward(forward(tokens, params, config), gold, margin).total
