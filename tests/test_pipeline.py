"""Forward-pass checks: determinism, pruning limits, config handling."""

from __future__ import annotations

import numpy as np
import pytest

from spanrel import RunConfig, default_k_span, forward, init_params, valid_span_count
from spanrel.pipeline import normalize_algorithm

from conftest import make_inventory


@pytest.fixture(scope="module")
def small_params():
    return init_params(make_inventory(3, 2), dim=16, heads=2, max_span_width=4, seed=2)


TOKENS = ("rosa", "joined", "the", "harbor", "authority", "board")


def test_forward_is_deterministic(small_params):
    a = forward(TOKENS, small_params)
    b = forward(TOKENS, small_params)
    assert np.array_equal(a.instance.entity_logits, b.instance.entity_logits)
    assert np.array_equal(a.instance.relation_logits, b.instance.relation_logits)
    assert a.instance.spans == b.instance.spans
    assert a.instance.pairs == b.instance.pairs


def test_forward_seed_changes_scores(small_params):
    a = forward(TOKENS, small_params, RunConfig(seed=0))
    b = forward(TOKENS, small_params, RunConfig(seed=1))
    assert not np.array_equal(a.instance.entity_logits, b.instance.entity_logits)


def test_forward_shapes(small_params):
    r = forward(TOKENS, small_params)
    inst = r.instance
    length = len(TOKENS)
    assert inst.length == length
    k = default_k_span(length, small_params.max_span_width)
    assert len(inst.spans) == k
    assert inst.entity_logits.shape == (k, 4)
    assert len(inst.pairs) <= k
    assert inst.relation_logits.shape == (len(inst.pairs), 3)
    # full grid sizes retained for diagnostics
    assert len(r.span_candidates) == length * small_params.max_span_width
    assert r.span_filter.ranking_scores.shape == (len(r.span_candidates),)
    assert len(r.pair_candidates) == k * k
    assert inst.tokens == TOKENS


def test_forward_pairs_reference_kept_spans(small_params):
    r = forward(TOKENS, small_params)
    k = len(r.instance.spans)
    for h, t in r.instance.pairs:
        assert 0 <= h < k and 0 <= t < k
        assert h != t
    # kept spans are valid in-sentence intervals
    for start, end in r.instance.spans:
        assert 0 <= start <= end < r.instance.length


def test_forward_k_override(small_params):
    r = forward(TOKENS, small_params, RunConfig(k_span=3, k_rel=2))
    assert len(r.instance.spans) == 3
    assert len(r.instance.pairs) == 2


def test_forward_single_token(small_params):
    r = forward(("hello",), small_params)
    assert r.instance.spans == ((0, 0),)
    assert r.instance.pairs == ()
    assert r.instance.relation_logits.shape == (0, 3)
    assert r.pair_filter.read_attention is None


def test_forward_depth_changes_representations(small_params):
    a = forward(TOKENS, small_params, RunConfig(depth=1))
    b = forward(TOKENS, small_params, RunConfig(depth=2))
    assert a.instance.spans == b.instance.spans
    assert not np.array_equal(a.instance.entity_logits, b.instance.entity_logits)


def test_forward_rejects_bad_tokens(small_params):
    with pytest.raises(ValueError):
        forward((), small_params)
    with pytest.raises(ValueError):
        forward(("ok", ""), small_params)


def test_default_k_span():
    assert default_k_span(4, 3) == min(valid_span_count(4, 3), 8)
    assert default_k_span(20, 3) == min(valid_span_count(20, 3), 20)
    assert default_k_span(2, 1) == 2


def test_normalize_algorithm():
    assert normalize_algorithm("entity-first") == "entity_first"
    assert normalize_algorithm("joint") == "joint"
    with pytest.raises(ValueError):
        normalize_algorithm("fastest")


def test_run_config_validation():
    cfg = RunConfig(algorithm="relation-first", k_span=4)
    assert cfg.algorithm == "relation_first"
    assert cfg.with_overrides(seed=5).seed == 5
    with pytest.raises(ValueError):
        RunConfig(k_span=0)
    with pytest.raises(ValueError):
        RunConfig(depth=0)
    with pytest.raises(ValueError):
        RunConfig(margin=0.0)
    with pytest.raises(ValueError):
        RunConfig(seed=-1)
    with pytest.raises(ValueError):
        RunConfig(budget=0)
