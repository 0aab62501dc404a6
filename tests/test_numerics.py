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
from spanrel.numerics import as_matrix, linear, relu, scalar_head


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


def test_linear_matches_manual():
    rng = make_rng(0)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    assert np.allclose(linear(x, w, b), x @ w + b)
    assert np.allclose(linear(x, w), x @ w)
    with pytest.raises(ValueError):
        linear(x, rng.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        linear(x, w, rng.normal(size=3))


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
    assert np.allclose(feed_forward(x, params), expected, atol=1e-12)
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
