"""forward() against a reference forward pass kept here in the tests.

The reference is the straightforward form of the model: one PRNG per
token, a list of span candidates, concat(start, end) @ W_ent per span, the
whole K*K pair grid built as concat(head, tail) @ W_rel, the ranking
feed-forward over every row, and attention one head at a time.  forward()
computes the same quantities in factored and batched form, which changes
the order of floating-point sums only: kept spans and pairs must be
identical and every value within TOL.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from spanrel import (
    NEG_SENTINEL,
    FeedForwardParams,
    GoldAnnotation,
    RunConfig,
    SpanCandidate,
    encode_tokens,
    feed_forward,
    forward,
    forward_stacks,
    init_params,
    load_constraint_set,
    loss_from_forward,
    make_rng,
    softmax_rows,
    valid_span_count,
)
from spanrel.pipeline import default_k_span

TOL = 1e-9


# ---------------------------------------------------------------------------
# reference


def ref_encode(tokens, dim, seed):
    out = np.empty((len(tokens), dim))
    for i, tok in enumerate(tokens):
        digest = hashlib.blake2b(
            tok.encode("utf-8"), digest_size=8, key=str(seed).encode("utf-8")
        ).digest()
        out[i] = make_rng(int.from_bytes(digest, "little")).uniform(-1.0, 1.0, size=dim)
    return out


def ref_spans(length, max_width):
    return [
        SpanCandidate(i, i + w, i + w < length)
        for i in range(length)
        for w in range(max_width)
    ]


def ref_span_reps(vectors, spans, w_ent):
    out = np.zeros((len(spans), vectors.shape[1]))
    for k, sp in enumerate(spans):
        if sp.valid:
            out[k] = np.concatenate([vectors[sp.start], vectors[sp.end]]) @ w_ent
    return out


def ref_pair_grid(span_reps, w_rel):
    k = span_reps.shape[0]
    pairs = [(h, t) for h in range(k) for t in range(k)]
    cat = np.array([np.concatenate([span_reps[h], span_reps[t]]) for h, t in pairs])
    reps = cat @ w_rel if pairs else np.zeros((0, span_reps.shape[1]))
    return reps, pairs, np.array([h != t for h, t in pairs], dtype=bool)


def ref_attention(q, kv, params):
    out = np.zeros_like(q)
    attn = np.empty((params.heads, q.shape[0], kv.shape[0]))
    scale = 1.0 / np.sqrt(float(params.head_dim))
    for h in range(params.heads):
        weights = softmax_rows((q @ params.wq[h]) @ (kv @ params.wk[h]).T * scale)
        attn[h] = weights
        out += (weights @ (kv @ params.wv[h])) @ params.wo[h]
    return out, attn


def ref_filter_refine(z, tokens, k, filter_ffn, read_attn, proc_attn, proc_ffn, valid, depth):
    scores = np.where(valid, feed_forward(z, filter_ffn)[:, 0], NEG_SENTINEL)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    live = [i for i in order if scores[i] > NEG_SENTINEL]
    kept = tuple(sorted(live[:k]))
    reps = z[list(kept)]
    attn = None
    if kept:
        for _ in range(depth):
            read_out, attn = ref_attention(reps, tokens, read_attn)
            reps = reps + read_out
            reps = reps + ref_attention(reps, reps, proc_attn)[0]
            reps = reps + feed_forward(reps, proc_ffn)
    return SimpleNamespace(
        kept_indices=kept, representations=reps, ranking_scores=scores, read_attention=attn
    )


def ref_forward(tokens, params, config):
    vectors = ref_encode(tokens, params.dim, config.seed)
    length = len(tokens)
    spans = ref_spans(length, params.max_span_width)
    k_span = config.k_span or default_k_span(length, params.max_span_width)
    span_fr = ref_filter_refine(
        ref_span_reps(vectors, spans, params.span_proj), vectors, k_span,
        params.span_filter, params.span_read, params.span_process_attn,
        params.span_process_ffn, np.array([s.valid for s in spans]), config.depth,
    )
    rel_reps, pairs, pair_valid = ref_pair_grid(span_fr.representations, params.relation_proj)
    pair_fr = ref_filter_refine(
        rel_reps, vectors, config.k_rel or k_span,
        params.relation_filter, params.relation_read, params.relation_process_attn,
        params.relation_process_ffn, pair_valid, config.depth,
    )
    rel_logits = (
        feed_forward(pair_fr.representations, params.relation_head)
        if pair_fr.kept_indices
        else np.zeros((0, params.relation_head.out_dim))
    )
    instance = SimpleNamespace(
        length=length,
        spans=tuple((spans[i].start, spans[i].end) for i in span_fr.kept_indices),
        entity_logits=feed_forward(span_fr.representations, params.entity_head),
        pairs=tuple(pairs[j] for j in pair_fr.kept_indices),
        relation_logits=rel_logits,
        inventory=params.inventory,
    )
    return SimpleNamespace(
        instance=instance,
        max_span_width=params.max_span_width,
        span_filter=span_fr,
        pair_filter=pair_fr,
    )


# ---------------------------------------------------------------------------
# cases


@pytest.fixture(scope="module")
def params():
    """Benchmark-sized params; init_params zeroes the feed-forward biases,
    so give them values, or a dropped bias would go unnoticed."""
    inventory = load_constraint_set("conll04").inventory
    base = init_params(inventory, dim=64, heads=4, max_span_width=12, seed=0)
    rng = make_rng(99)
    biased = {
        f.name: dataclasses.replace(
            ffn, b1=rng.normal(0.0, 0.1, ffn.b1.shape), b2=rng.normal(0.0, 0.1, ffn.b2.shape)
        )
        for f in dataclasses.fields(base)
        if isinstance(ffn := getattr(base, f.name), FeedForwardParams)
    }
    return dataclasses.replace(base, **biased)


def _sentence(length, seed, vocab_size=40):
    rng = make_rng(seed)
    return tuple(f"w{int(i)}" for i in rng.integers(0, vocab_size, size=length))


CASES = {
    "len1": (_sentence(1, 1), RunConfig()),
    "len2": (_sentence(2, 2), RunConfig()),
    "len5": (_sentence(5, 3), RunConfig()),
    "len40": (_sentence(40, 4), RunConfig()),
    "len80": (_sentence(80, 5), RunConfig()),
    # repeated tokens give identical span rows, so ranking scores tie
    "repeated": (("a", "b", "a", "b", "a", "b", "c", "a", "b"), RunConfig()),
    "one-word": (("x",) * 12, RunConfig()),
    "depth2": (_sentence(30, 6), RunConfig(depth=2)),
    "seed3": (_sentence(20, 7), RunConfig(seed=3)),
    "k-overrides": (_sentence(25, 8), RunConfig(k_span=5, k_rel=7)),
    "k-over-valid": (_sentence(4, 9), RunConfig(k_span=50, k_rel=200)),
    # K kept spans around the 16-head-row blocks the pair grid is ranked in
    "k1": (_sentence(40, 10), RunConfig(k_span=1)),
    "k15": (_sentence(40, 11), RunConfig(k_span=15, k_rel=15)),
    "k16": (_sentence(40, 12), RunConfig(k_span=16, k_rel=16)),
    "k17": (_sentence(40, 13), RunConfig(k_span=17, k_rel=17)),
    "k33": (_sentence(50, 14), RunConfig(k_span=33, k_rel=33)),
    # odd grids, where a BLAS gemv rounds the last rows apart
    "odd-w1": (_sentence(37, 15), RunConfig()),
    "odd-w3": (_sentence(23, 16), RunConfig()),
}
# Cases run with another max_span_width than the fixture's 12.
WIDTHS = {"odd-w1": 1, "odd-w3": 3}


def _assert_close(a, b):
    assert a.shape == b.shape
    if a.size:
        assert np.abs(a - b).max() <= TOL


@pytest.mark.parametrize("case", sorted(CASES))
def test_forward_matches_reference(params, case):
    tokens, config = CASES[case]
    if case in WIDTHS:
        params = dataclasses.replace(params, max_span_width=WIDTHS[case])
    got = forward(tokens, params, config)
    ref = ref_forward(tokens, params, config)
    for level in ("span_filter", "pair_filter"):
        g, r = getattr(got, level), getattr(ref, level)
        assert g.kept_indices == r.kept_indices, level
        _assert_close(g.ranking_scores, r.ranking_scores)
        _assert_close(g.representations, r.representations)
        assert (g.read_attention is None) == (r.read_attention is None)
        if g.read_attention is not None:
            _assert_close(g.read_attention, r.read_attention)
    assert got.instance.spans == ref.instance.spans
    assert got.instance.pairs == ref.instance.pairs
    _assert_close(got.instance.entity_logits, ref.instance.entity_logits)
    _assert_close(got.instance.relation_logits, ref.instance.relation_logits)


def _equal_within_groups(keys, values):
    """True when every group of equal keys holds one value."""
    order = np.lexsort((values, keys))
    keys, values = keys[order], values[order]
    same_key = keys[1:] == keys[:-1]
    return bool(np.all(values[1:][same_key] == values[:-1][same_key]))


def test_repeated_tokens_tie_exactly(params):
    """Spans over equal tokens rank equal, and the lower index wins."""
    tokens, config = CASES["one-word"]
    scores = forward(tokens, params, config).span_filter.ranking_scores
    width = params.max_span_width
    # every valid span of one width has the same start and end vectors
    assert len({float(scores[i * width]) for i in range(len(tokens))}) == 1

    # Every grid shape and cut: equal rows score equal wherever they sit.
    for width in (1, 3, 5, 12):
        p = dataclasses.replace(params, max_span_width=width)
        for length in range(1, 41):
            n_valid = valid_span_count(length, width)
            for k_span in sorted({1, 2, 3, 5, 16, 17, n_valid} & set(range(1, n_valid + 1))):
                got = forward(("x",) * length, p, RunConfig(k_span=k_span))
                where = (width, length, k_span)
                spans = got.span_filter
                valid = spans.ranking_scores > NEG_SENTINEL
                # all tokens are equal, so every valid span has equal endpoints
                assert len(set(spans.ranking_scores[valid].tolist())) == 1, where
                assert spans.kept_indices == tuple(np.flatnonzero(valid)[:k_span].tolist()), where
                starts = sorted({s for s, _ in got.instance.spans})
                assert starts == list(range(len(starts))), where
                # pairs whose endpoint rows are equal score equal
                reps = spans.representations
                _, row_id = np.unique(reps, axis=0, return_inverse=True)
                heads, tails = np.divmod(np.arange(len(reps) ** 2), len(reps))
                live = heads != tails
                keys = (row_id.ravel()[heads] * len(reps) + row_id.ravel()[tails])[live]
                pair_scores = got.pair_filter.ranking_scores[live]
                assert _equal_within_groups(keys, pair_scores), where


def test_forward_memory_is_bounded(params):
    """Both grids are ranked in factored form, the pair grid a block of head
    rows at a time, so forward's peak grows with K*L, not K*K*hidden: about
    13.7 MB at L = 320, where ranking the whole pair grid at once took 60 MB."""
    tokens = _sentence(320, 17, vocab_size=2000)
    forward(tokens, params)  # token vectors and stacked weights are cached
    tracemalloc.start()
    try:
        forward(tokens, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15e6, f"forward peak {peak / 1e6:.1f} MB at L = 320"


def test_forward_stacks_memory_is_bounded(params):
    """A stack holds a budget of cells, not a count of sentences, so 8
    sentences of 320 tokens are scored one at a time and peak as one lone
    forward does; stacked 8 at a time they peaked at about 108 MB."""
    sentences = [_sentence(320, 17 + i, vocab_size=2000) for i in range(8)]
    deque(forward_stacks(sentences, params), maxlen=0)  # token vectors are cached
    tracemalloc.start()
    try:
        deque(forward_stacks(sentences, params), maxlen=0)  # each result dropped at once
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15e6, f"forward_stacks peak {peak / 1e6:.1f} MB for 8 sentences at L = 320"


def test_loss_from_forward_matches_reference(params):
    tokens, config = CASES["len40"]
    got = forward(tokens, params, config)
    ref = ref_forward(tokens, params, config)
    (s0, e0), (s1, e1) = got.instance.spans[:2]
    gold = GoldAnnotation(
        entities=((s0, e0, "Peop"),) + (((s1, e1, "Org"),) if s1 > e0 or e1 < s0 else ()),
    )
    a = loss_from_forward(got, gold)
    b = loss_from_forward(ref, gold)
    for name in ("ranking_entity", "ranking_relation", "classification_entity",
                 "classification_relation"):
        assert abs(getattr(a, name) - getattr(b, name)) <= TOL, name


def test_token_vectors_are_not_shared_with_callers():
    first = encode_tokens(["alpha", "beta", "alpha"], dim=8, seed=4)
    expected = first.copy()
    first[:] = 0.0
    again = encode_tokens(["alpha", "beta", "alpha"], dim=8, seed=4)
    assert np.array_equal(again, expected)
    assert np.array_equal(again, ref_encode(["alpha", "beta", "alpha"], 8, 4))
