"""Pruning-stage checks: ranking, stable top-k selection, read and process."""

from __future__ import annotations

import numpy as np
import pytest

from spanrel import (
    NEG_SENTINEL,
    AttentionWeights,
    FeedForwardParams,
    feed_forward,
    filter_and_refine,
    make_rng,
    ranking_scores,
    top_k_select,
)
from spanrel.filter_refine import process, read
from spanrel.representation import CandidateGrid


def oracle_top_k(scores, k):
    """Independent selection: python stable sort, ties to the lower index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    valid = [i for i in order if scores[i] > NEG_SENTINEL]
    return tuple(sorted(valid[:k]))


def _grid(z, valid=None):
    """The rows of an (N, D) matrix as a one-column CandidateGrid: cell a is
    z[a] plus one zero tail row."""
    valid = np.ones(len(z), dtype=bool) if valid is None else valid
    return CandidateGrid(z, np.zeros((1, z.shape[1])), 1, 0, valid)


def _ffn(rng, d_in, hidden, d_out):
    return FeedForwardParams(
        w1=rng.normal(size=(d_in, hidden)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=(hidden, d_out)),
        b2=rng.normal(size=d_out),
    )


def _attn(rng, dim, heads):
    dh = dim // heads
    return AttentionWeights(
        wq=rng.normal(size=(heads, dim, dh)),
        wk=rng.normal(size=(heads, dim, dh)),
        wv=rng.normal(size=(heads, dim, dh)),
        wo=rng.normal(size=(heads, dh, dim)),
    )


def test_ranking_scores_masking():
    rng = make_rng(0)
    f = _ffn(rng, 4, 8, 1)
    z = rng.normal(size=(5, 4))
    scores = ranking_scores(_grid(z), f)
    assert scores.shape == (5,)
    assert np.allclose(scores, feed_forward(z, f)[:, 0], rtol=0, atol=1e-12)
    valid = np.array([True, False, True, True, False])
    masked = ranking_scores(_grid(z, valid), f, valid)
    assert np.array_equal(masked[valid], scores[valid])
    assert (masked[~valid] == NEG_SENTINEL).all()
    with pytest.raises(ValueError):
        ranking_scores(_grid(z), f, np.array([True, False]))


def test_top_k_matches_oracle_random():
    rng = make_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        scores = rng.normal(size=n)
        if rng.random() < 0.5:
            # inject exact ties
            scores = np.round(scores * 2) / 2
        if rng.random() < 0.5 and n > 1:
            dead = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            scores[dead] = NEG_SENTINEL
        k = int(rng.integers(1, n + 2))
        z = rng.normal(size=(n, 3))
        result = top_k_select(z, scores, k)
        assert result.kept_indices == oracle_top_k(scores.tolist(), k)
        assert np.array_equal(result.representations, z[list(result.kept_indices)])


def test_top_k_clamps_and_orders():
    z = np.eye(4)
    scores = np.array([0.1, 5.0, NEG_SENTINEL, 5.0])
    r = top_k_select(z, scores, 10)
    # clamp to valid count, ascending output
    assert r.kept_indices == (0, 1, 3)
    r = top_k_select(z, scores, 1)
    # tie between 1 and 3 goes to the lower index
    assert r.kept_indices == (1,)
    with pytest.raises(ValueError):
        top_k_select(z, scores, 0)


def test_top_k_never_prefers_invalid():
    rng = make_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        scores = rng.normal(size=n)
        dead = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        scores[dead] = NEG_SENTINEL
        live = sorted(set(range(n)) - set(int(d) for d in dead))
        r = top_k_select(np.zeros((n, 2)), scores, n)
        assert set(r.kept_indices) == set(live)


def test_read_residual_and_attention():
    rng = make_rng(3)
    dim, heads = 6, 2
    params = _attn(rng, dim, heads)
    z = rng.normal(size=(4, dim))
    tokens = rng.normal(size=(7, dim))
    out, attn = read(z, tokens, params)
    assert out.shape == z.shape
    assert attn.shape == (heads, 4, 7)
    assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-10)
    # zero output projection reduces read to the identity
    frozen = AttentionWeights(params.wq, params.wk, params.wv, np.zeros_like(params.wo))
    same, _ = read(z, tokens, frozen)
    assert np.array_equal(same, z)
    with pytest.raises(ValueError):
        read(z, np.zeros((0, dim)), params)


def test_process_shapes():
    rng = make_rng(4)
    dim = 6
    attn = _attn(rng, dim, 2)
    ffn = _ffn(rng, dim, 12, dim)
    z = rng.normal(size=(3, dim))
    out = process(z, attn, ffn)
    assert out.shape == z.shape
    # zeroed blocks reduce to identity through both residuals
    frozen_attn = AttentionWeights(attn.wq, attn.wk, attn.wv, np.zeros_like(attn.wo))
    frozen_ffn = FeedForwardParams(
        ffn.w1, ffn.b1, np.zeros_like(ffn.w2), np.zeros(dim)
    )
    assert np.array_equal(process(z, frozen_attn, frozen_ffn), z)
    with pytest.raises(ValueError):
        process(np.zeros((0, dim)), attn, ffn)


def test_filter_and_refine_end_to_end():
    rng = make_rng(5)
    dim = 6
    f = _ffn(rng, dim, 8, 1)
    rd = _attn(rng, dim, 2)
    pa = _attn(rng, dim, 2)
    pf = _ffn(rng, dim, 8, dim)
    z = rng.normal(size=(10, dim))
    tokens = rng.normal(size=(5, dim))
    valid = np.ones(10, dtype=bool)
    valid[[2, 7]] = False
    result = filter_and_refine(_grid(z, valid), tokens, 4, f, rd, pa, pf, valid=valid)
    assert len(result.kept_indices) == 4
    assert not_set_overlap(result.kept_indices, (2, 7))
    assert result.read_attention is not None
    assert result.read_attention.shape == (2, 4, 5)
    assert np.allclose(result.read_attention.sum(axis=2), 1.0, atol=1e-10)
    assert result.ranking_scores.shape == (10,)
    # refinement changed the representations
    assert not np.allclose(result.representations, z[list(result.kept_indices)])


def not_set_overlap(a, b):
    return not (set(a) & set(b))


def test_filter_and_refine_depth_zero_and_two():
    rng = make_rng(6)
    dim = 6
    f = _ffn(rng, dim, 8, 1)
    rd = _attn(rng, dim, 2)
    pa = _attn(rng, dim, 2)
    pf = _ffn(rng, dim, 8, dim)
    z = rng.normal(size=(6, dim))
    tokens = rng.normal(size=(4, dim))
    raw = filter_and_refine(_grid(z), tokens, 3, f, rd, pa, pf, depth=0)
    assert raw.read_attention is None
    assert np.array_equal(raw.representations, z[list(raw.kept_indices)])
    once = filter_and_refine(_grid(z), tokens, 3, f, rd, pa, pf, depth=1)
    twice = filter_and_refine(_grid(z), tokens, 3, f, rd, pa, pf, depth=2)
    assert once.kept_indices == twice.kept_indices
    assert not np.allclose(once.representations, twice.representations)
    # depth 2 equals refining the depth-1 output once more
    again = process(read(once.representations, tokens, rd)[0], pa, pf)
    assert np.allclose(twice.representations, again, atol=1e-12)


def test_filter_and_refine_nothing_survives():
    rng = make_rng(7)
    dim = 4
    f = _ffn(rng, dim, 8, 1)
    rd = _attn(rng, dim, 2)
    pa = _attn(rng, dim, 2)
    pf = _ffn(rng, dim, 8, dim)
    z = rng.normal(size=(3, dim))
    tokens = rng.normal(size=(4, dim))
    invalid = np.zeros(3, dtype=bool)
    result = filter_and_refine(_grid(z, invalid), tokens, 2, f, rd, pa, pf, valid=invalid)
    assert result.kept_indices == ()
    assert result.representations.shape == (0, dim)
    assert result.read_attention is None
