"""Kernel-level checks: affine maps, softmax, attention, feed-forward."""

from __future__ import annotations

import numpy as np
import pytest

from spanrel import (
    NEG_SENTINEL,
    AttentionWeights,
    FeedForwardParams,
    feed_forward,
    make_rng,
    multi_head_attention,
    softmax,
    softmax_rows,
)
from spanrel.filter_refine import FilterResult, ranking_scores, top_k_select
from spanrel.numerics import as_matrix, relu, scalar_head
from spanrel.representation import (
    pair_grid,
    relation_representations,
    span_grid,
    span_representations,
)


def test_make_rng_repeatable():
    a = make_rng(42).normal(size=16)
    b = make_rng(42).normal(size=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(43).normal(size=16))


def test_as_matrix_checks():
    m = as_matrix([[1, 2], [3, 4]], rows=2, cols=2)
    assert m.dtype == np.float64
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix([[1, 2]], rows=2)
    with pytest.raises(ValueError):
        as_matrix([[1, 2]], cols=3)


def test_softmax_basic():
    v = np.array([1.0, 2.0, 3.0])
    p = softmax(v)
    assert p.shape == (3,)
    assert abs(p.sum() - 1.0) < 1e-12
    assert p[2] > p[1] > p[0]
    # invariant under constant shift
    assert np.allclose(softmax(v + 100.0), p)


def test_softmax_extreme_values_stable():
    p = softmax(np.array([1e9, 0.0, -1e9]))
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-12
    assert p[0] > 0.999


def test_softmax_mask():
    v = np.array([5.0, 1.0, 3.0])
    p = softmax(v, mask=np.array([False, True, True]))
    assert p[0] == 0.0
    assert abs(p.sum() - 1.0) < 1e-12
    manual = softmax(np.array([1.0, 3.0]))
    assert np.allclose(p[1:], manual)
    with pytest.raises(ValueError):
        softmax(v, mask=np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        softmax(np.array([]))


def test_softmax_rows_sum_to_one():
    rng = make_rng(1)
    m = rng.normal(scale=50.0, size=(20, 7))
    p = softmax_rows(m)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    for i in range(m.shape[0]):
        assert np.allclose(p[i], softmax(m[i]))


def test_sentinel_never_wins_softmax():
    p = softmax(np.array([NEG_SENTINEL, 0.0, NEG_SENTINEL]))
    assert p[1] == pytest.approx(1.0)
    assert p[0] == 0.0 and p[2] == 0.0


def _rand_attention(rng, dim, heads):
    dh = dim // heads
    return AttentionWeights(
        wq=rng.normal(size=(heads, dim, dh)),
        wk=rng.normal(size=(heads, dim, dh)),
        wv=rng.normal(size=(heads, dim, dh)),
        wo=rng.normal(size=(heads, dh, dim)),
    )


def test_attention_weights_validation():
    rng = make_rng(2)
    with pytest.raises(ValueError):
        AttentionWeights(
            wq=rng.normal(size=(2, 6, 3)),
            wk=rng.normal(size=(2, 6, 3)),
            wv=rng.normal(size=(2, 6, 2)),
            wo=rng.normal(size=(2, 3, 6)),
        )
    with pytest.raises(ValueError):
        # heads * head_dim != dim
        AttentionWeights(
            wq=rng.normal(size=(2, 6, 2)),
            wk=rng.normal(size=(2, 6, 2)),
            wv=rng.normal(size=(2, 6, 2)),
            wo=rng.normal(size=(2, 2, 6)),
        )


def test_single_head_attention_matches_manual():
    rng = make_rng(3)
    dim = 4
    params = _rand_attention(rng, dim, heads=1)
    q = rng.normal(size=(3, dim))
    kv = rng.normal(size=(5, dim))
    out, attn = multi_head_attention(q, kv, params)

    qh = q @ params.wq[0]
    kh = kv @ params.wk[0]
    vh = kv @ params.wv[0]
    weights = softmax_rows(qh @ kh.T / np.sqrt(dim))
    expected = (weights @ vh) @ params.wo[0]
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(attn[0], weights, atol=1e-12)


def test_multi_head_attention_shapes_and_rows():
    rng = make_rng(4)
    params = _rand_attention(rng, dim=8, heads=2)
    q = rng.normal(size=(6, 8))
    kv = rng.normal(size=(9, 8))
    out, attn = multi_head_attention(q, kv, params)
    assert out.shape == (6, 8)
    assert attn.shape == (2, 6, 9)
    assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-10)
    with pytest.raises(ValueError):
        multi_head_attention(q, np.zeros((0, 8)), params)


def test_multi_head_is_sum_of_heads():
    rng = make_rng(5)
    params = _rand_attention(rng, dim=8, heads=2)
    q = rng.normal(size=(4, 8))
    kv = rng.normal(size=(7, 8))
    out, attn = multi_head_attention(q, kv, params)
    total = np.zeros_like(q)
    for h in range(2):
        vh = kv @ params.wv[h]
        total += (attn[h] @ vh) @ params.wo[h]
    assert np.allclose(out, total, atol=1e-12)


def test_stacked_projection_and_self_attention():
    rng = make_rng(8)
    params = _rand_attention(rng, dim=8, heads=2)
    # wqkv lays the per-head projections side by side: q heads, k heads, v heads
    for i, w in enumerate((params.wq, params.wk, params.wv)):
        for h in range(2):
            cols = params.wqkv[:, i * 8 + h * 4 : i * 8 + (h + 1) * 4]
            assert np.array_equal(cols, w[h])
    x = rng.normal(size=(5, 8))
    # self-attention (one stacked product) agrees with cross-attention on a copy
    out, attn = multi_head_attention(x, x, params)
    out2, attn2 = multi_head_attention(x, x.copy(), params)
    assert np.allclose(out, out2, atol=1e-12)
    assert np.allclose(attn, attn2, atol=1e-12)
    total = np.zeros_like(x)
    for h in range(2):
        weights = softmax_rows((x @ params.wq[h]) @ (x @ params.wk[h]).T / np.sqrt(4))
        assert np.allclose(attn[h], weights, atol=1e-12)
        total += (weights @ (x @ params.wv[h])) @ params.wo[h]
    assert np.allclose(out, total, atol=1e-12)


def test_scalar_head_scores_equal_rows_equal():
    rng = make_rng(9)
    params = FeedForwardParams(
        w1=rng.normal(size=(3, 64)),
        b1=rng.normal(size=64),
        w2=rng.normal(size=(64, 1)),
        b2=rng.normal(size=1),
    )
    row = rng.normal(size=64)
    seen = set()
    for n in range(1, 20):
        seen.update(scalar_head(np.tile(row, (n, 1)), params).tolist())
        seen.update(scalar_head(np.tile(row, (n, 3, 1)), params).ravel().tolist())
    assert len(seen) == 1
    hidden = rng.normal(size=(7, 64))
    assert np.allclose(scalar_head(hidden, params), hidden @ params.w2[:, 0], atol=1e-12)
    wide = FeedForwardParams(params.w1, params.b1, rng.normal(size=(64, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        scalar_head(hidden, wide)


def test_feed_forward_matches_manual():
    rng = make_rng(6)
    params = FeedForwardParams(
        w1=rng.normal(size=(5, 9)),
        b1=rng.normal(size=9),
        w2=rng.normal(size=(9, 3)),
        b2=rng.normal(size=3),
    )
    x = rng.normal(size=(4, 5))
    expected = np.maximum(x @ params.w1 + params.b1, 0.0) @ params.w2 + params.b2
    assert np.array_equal(feed_forward(x, params), expected)
    assert params.in_dim == 5 and params.out_dim == 3


def test_feed_forward_validation():
    rng = make_rng(7)
    with pytest.raises(ValueError):
        FeedForwardParams(
            w1=rng.normal(size=(5, 9)),
            b1=rng.normal(size=8),
            w2=rng.normal(size=(9, 3)),
            b2=rng.normal(size=3),
        )
    with pytest.raises(ValueError):
        FeedForwardParams(
            w1=rng.normal(size=(5, 9)),
            b1=rng.normal(size=9),
            w2=rng.normal(size=(8, 3)),
            b2=rng.normal(size=3),
        )


def test_relu():
    x = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 3.5]))


def _stack_kernels():
    """Kernels run on x (N, 8) and kv (M, 8), or on both stacked as one."""
    rng = make_rng(10)
    attn = _rand_attention(rng, dim=8, heads=2)
    ffn = FeedForwardParams(rng.normal(size=(8, 5)), rng.normal(size=5),
                            rng.normal(size=(5, 3)), rng.normal(size=3))
    rank = FeedForwardParams(rng.normal(size=(8, 6)), rng.normal(size=6),
                             rng.normal(size=(6, 1)), rng.normal(size=1))
    w = rng.normal(size=(16, 8))

    def cells(x, n):
        return np.arange(0, n, 3).reshape(*x.shape[:-2], -1)

    def top_k(grid):
        return top_k_select(grid, ranking_scores(grid, rank, grid.valid), 4)

    return {
        "self-attention": lambda x, kv: multi_head_attention(x, x, attn),
        "cross-attention": lambda x, kv: multi_head_attention(x, kv, attn),
        "feed-forward": lambda x, kv: feed_forward(x, ffn),
        "span-rank": lambda x, kv: span_grid(x, 3, w).rank(rank),
        "span-rows": lambda x, kv: span_grid(x, 3, w).rows(cells(x, 18)),
        "span-top-k": lambda x, kv: top_k(span_grid(x, 3, w)),
        "pair-rank": lambda x, kv: pair_grid(x, w).rank(rank),
        "pair-rows": lambda x, kv: pair_grid(x, w).rows(cells(x, 36)),
        "pair-top-k": lambda x, kv: top_k(pair_grid(x, w)),
        "span-dense": lambda x, kv: span_representations(x, 3, w),
        "pair-dense": lambda x, kv: relation_representations(x, w)[::2],
    }


STACK_KERNELS = _stack_kernels()


@pytest.mark.parametrize("kernel", STACK_KERNELS.values(), ids=STACK_KERNELS.keys())
def test_one_matrix_gets_the_bits_of_a_stack_of_one(kernel):
    """A plain matrix and the same matrix stacked as one run one expression,
    so every output is the same, bit for bit, under a leading axis of 1.
    Rows repeat, so top-k meets ties."""
    rng = make_rng(11)
    x, kv = rng.normal(size=(3, 8))[np.arange(6) % 3], rng.normal(size=(9, 8))
    one, stacked = kernel(x, kv), kernel(x[None], kv[None])
    if isinstance(one, FilterResult):
        assert one.kept_indices == stacked.kept_indices
        one = (one.representations, one.ranking_scores)
        stacked = (stacked.representations, stacked.ranking_scores)
    elif isinstance(one, np.ndarray):
        one, stacked = (one,), (stacked,)
    for a, b in zip(one, stacked, strict=True):
        assert b.shape == (1, *a.shape)
        assert b[0].tobytes() == a.tobytes()
