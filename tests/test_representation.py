"""Representation-layer checks: inventories, embeddings, spans, pairs, bias."""

from __future__ import annotations

import numpy as np
import pytest

from spanrel import (
    NULL_ENTITY,
    NULL_RELATION,
    BiasTable,
    ConstraintSet,
    ScoredInstance,
    TypeInventory,
    classify_relations,
    classify_spans,
    decode,
    encode_tokens,
    enumerate_spans,
    make_rng,
    ranking_scores,
    relation_representations,
    span_representations,
    feed_forward,
    valid_span_count,
)
from spanrel import representation
from spanrel.numerics import NEG_SENTINEL, FeedForwardParams
from spanrel.representation import pair_grid, span_grid


def test_inventory_nulls_first():
    inv = TypeInventory.from_names(["Peop", "Org"], ["Work_For"])
    assert inv.entity_types[0] == NULL_ENTITY
    assert inv.relation_types[0] == NULL_RELATION
    assert inv.entity_index("Peop") == 1
    assert inv.relation_index("Work_For") == 1
    assert inv.num_entity_types == 3
    assert inv.num_relation_types == 2


def test_inventory_rejects_duplicates_and_misplaced_null():
    with pytest.raises(ValueError):
        TypeInventory.from_names(["Peop", "Peop"], ["R"])
    with pytest.raises(ValueError):
        TypeInventory.from_names(["Peop", NULL_ENTITY], ["R"])
    with pytest.raises(ValueError):
        TypeInventory((NULL_ENTITY, "A"), ("wrong-null",))
    with pytest.raises(KeyError):
        TypeInventory.from_names(["A"], ["R"]).entity_index("missing")


def test_encode_tokens_deterministic_and_stable():
    a = encode_tokens(["the", "cat"], dim=16, seed=5)
    b = encode_tokens(["the", "cat"], dim=16, seed=5)
    assert a.shape == (2, 16) and a.dtype == np.float64
    assert np.array_equal(a, b)
    # same token, same vector, independent of position
    c = encode_tokens(["cat", "the"], dim=16, seed=5)
    assert np.array_equal(a[1], c[0])
    # seed changes the stream
    d = encode_tokens(["the", "cat"], dim=16, seed=6)
    assert not np.array_equal(a, d)
    assert a.max() <= 1.0 and a.min() >= -1.0
    with pytest.raises(ValueError):
        encode_tokens([], dim=4)


def test_enumerate_spans_grid():
    spans = enumerate_spans(length=3, max_width=2)
    assert len(spans) == 6
    # (start, width) order
    assert [(s.start, s.end) for s in spans] == [
        (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
    ]
    # invalid iff the end runs past the sentence
    assert [s.valid for s in spans] == [True, True, True, True, True, False]
    assert valid_span_count(3, 2) == 5
    assert valid_span_count(5, 12) == 5 + 4 + 3 + 2 + 1
    assert sum(s.valid for s in enumerate_spans(5, 12)) == valid_span_count(5, 12)


def test_span_representations_endpoints():
    rng = make_rng(0)
    emb = encode_tokens(["a", "b", "c"], dim=4, seed=0)
    w = rng.normal(size=(8, 4))
    reps = span_representations(emb, 2, w)
    assert reps.shape == (6, 4)
    # row = concat(start vec, end vec) @ w
    cat = np.concatenate([emb[1], emb[2]])
    assert np.allclose(reps[3], cat @ w)
    # invalid span rows are zeroed
    assert np.array_equal(reps[5], np.zeros(4))
    with pytest.raises(ValueError):
        span_representations(emb, 2, rng.normal(size=(4, 4)))


def _ranking_ffn(rng, d, hidden=6):
    return FeedForwardParams(
        w1=rng.normal(size=(d, hidden)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=(hidden, 1)),
        b2=rng.normal(size=1),
    )


GRIDS = [("span", n, m) for n in (1, 5, 17) for m in (1, 3, 12)]
GRIDS += [("pair", k, k) for k in (1, 2, 15, 16, 17, 33)]


@pytest.mark.parametrize("shift", [0, -1, 1], ids=["block", "block-1", "block+1"])
@pytest.mark.parametrize("kind, n, width", GRIDS, ids=[f"{g[0]}-{g[1]}x{g[2]}" for g in GRIDS])
def test_grid_rank_matches_dense(kind, n, width, shift, monkeypatch):
    """Both grids rank through one kernel: its rows are the dense rows, its
    scores the dense feed-forward's, a block of grid rows at a time.  A
    shift makes the block one row shorter or longer than the grid, down to
    the 16-row floor."""
    if shift:
        monkeypatch.setattr(representation, "RANK_BLOCK", width * (n + shift))
    rng = make_rng(5 + n + width)
    w = rng.normal(size=(8, 4))
    ffn = _ranking_ffn(rng, 4)
    if kind == "span":
        # a period-3 sentence, so equal spans recur
        emb = encode_tokens([("a", "b", "c")[i % 3] for i in range(n)], dim=4, seed=0)
        grid = span_grid(emb, width, w)
        x, spans = emb, enumerate_spans(n, width)
        heads = np.array([s.start for s in spans])
        tails = np.array([s.end for s in spans])
        valid = np.array([s.valid for s in spans])
    else:
        x = rng.normal(size=(3, 4))[np.arange(n) % 3]
        grid = pair_grid(x, w)
        heads, tails = np.divmod(np.arange(n * n), n)
        valid = heads != tails
    cells = np.flatnonzero(valid) if kind == "span" else np.arange(n * width)
    dense = (x @ w[:4])[heads[cells]] + (x @ w[4:])[tails[cells]]
    assert np.array_equal(grid.valid, valid)
    assert np.array_equal(grid.rows(cells), dense)
    scores = grid.rank(ffn)
    assert scores.shape == (n * width,)
    assert np.allclose(scores[cells], feed_forward(dense, ffn)[:, 0], rtol=0, atol=1e-12)
    masked = ranking_scores(grid, ffn, valid=grid.valid)
    assert np.array_equal(masked[valid], scores[valid])
    assert (masked[~valid] == NEG_SENTINEL).all()
    # equal rows get equal scores
    groups, inverse = np.unique(dense, axis=0, return_inverse=True)
    first = np.empty(len(groups))
    first[inverse] = scores[cells]
    assert np.array_equal(scores[cells], first[inverse])
    assert n <= 3 or len(groups) < len(cells)


def test_relation_representations():
    rng = make_rng(1)
    span_reps = rng.normal(size=(3, 4))
    w = rng.normal(size=(8, 4))
    reps, pairs, valid = relation_representations(span_reps, w)
    assert reps.shape == (9, 4)
    assert pairs == [(h, t) for h in range(3) for t in range(3)]
    assert valid.tolist() == [h != t for h, t in pairs]
    cat = np.concatenate([span_reps[2], span_reps[0]])
    assert np.allclose(reps[2 * 3 + 0], cat @ w)


def test_classify_heads():
    rng = make_rng(2)
    head = FeedForwardParams(
        w1=rng.normal(size=(4, 6)),
        b1=rng.normal(size=6),
        w2=rng.normal(size=(6, 3)),
        b2=rng.normal(size=3),
    )
    reps = rng.normal(size=(5, 4))
    logits = classify_spans(reps, head)
    assert logits.shape == (5, 3)
    assert classify_relations(np.zeros((0, 4)), head).shape == (0, 3)
    with pytest.raises(ValueError):
        classify_spans(np.zeros((0, 4)), head)


def test_bias_lookup_matches_combined():
    rng = make_rng(3)
    e, r = 3, 4
    table = BiasTable(
        joint=rng.normal(size=(e, e, r)),
        head_relation=rng.normal(size=(e, r)),
        tail_relation=rng.normal(size=(e, r)),
        head_tail=rng.normal(size=(e, e)),
    )
    combined = table.combined()
    for h in range(e):
        for t in range(e):
            for rel in range(r):
                manual = (
                    table.joint[h, t, rel]
                    + table.head_relation[h, rel]
                    + table.tail_relation[t, rel]
                    + table.head_tail[h, t]
                )
                assert combined[h, t, rel] == pytest.approx(manual)


def test_bias_zeros_and_validation():
    z = BiasTable.zeros(2, 3)
    assert np.array_equal(z.combined(), np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        BiasTable(
            joint=np.zeros((2, 3, 4)),
            head_relation=np.zeros((2, 4)),
            tail_relation=np.zeros((2, 4)),
            head_tail=np.zeros((2, 2)),
        )


def test_sentinel_bias_blocks_argmax():
    """A NEG_SENTINEL joint-bias cell never wins a decode: the relation it
    blocks is the one the logits want, and it wins once the cell is 0."""
    inv = TypeInventory.from_names(["A"], ["r"])
    table = BiasTable.zeros(2, 2)
    blocked = table.joint.copy()
    blocked[1, 1, 1] = NEG_SENTINEL
    blocked_table = BiasTable(blocked, table.head_relation, table.tail_relation, table.head_tail)
    ent = np.array([[0.0, 5.0], [0.0, 5.0]])
    rel = np.array([[0.0, 100.0]])
    for bias, want in ((table, 1), (blocked_table, 0)):
        inst = ScoredInstance(4, ((0, 0), (2, 3)), ent, ((0, 1),), rel, inv, bias=bias)
        for algorithm in ("entity_first", "joint"):
            st = decode(inst, algorithm, ConstraintSet(inv))
            assert st.entity_labels == (1, 1), algorithm
            assert st.relation_labels == (want,), algorithm
