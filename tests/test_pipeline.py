"""Forward-pass checks: determinism, pruning limits, config handling."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

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
    assert r.span_filter.ranking_scores.shape == (length * small_params.max_span_width,)
    assert r.pair_filter.ranking_scores.shape == (k * k,)
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
    assert dataclasses.replace(cfg, seed=5).seed == 5
    with pytest.raises(ValueError):
        RunConfig(k_span=0)
    with pytest.raises(ValueError):
        RunConfig(depth=0)
    with pytest.raises(ValueError):
        RunConfig(seed=-1)
    with pytest.raises(ValueError):
        RunConfig(budget=0)


def test_traced_names_resolve():
    """Every (module, attribute) that perfbench/spantrace.py wraps is a
    callable of the package, so removing or renaming one cannot silently
    drop it from the per-layer report.  WRAPPED is read as a literal;
    perfbench is not imported."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"
    if not path.is_file():
        pytest.skip("perfbench/spantrace.py is absent")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    ]
    assert wrapped
    for module_name, attr, _ in wrapped:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_tracer_counts_valid_and_kept_candidates(small_params):
    """perfbench/spantrace.py, installed around one forward, reads the
    valid mask that forward passes to filter_and_refine by keyword: its
    counts are the valid spans, the K(K-1) off-diagonal pairs and the kept
    candidates of each level."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"
    if not path.is_file():
        pytest.skip("perfbench/spantrace.py is absent")
    spec = importlib.util.spec_from_file_location("spantrace", path)
    spantrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spantrace)
    pipeline = importlib.import_module("spanrel.pipeline")
    tracer = spantrace.Tracer()
    with tracer.installed():
        result = pipeline.forward(TOKENS, small_params)
    counts = tracer.counters
    k = len(result.instance.spans)
    assert counts["filter_refine.span.valid"] == valid_span_count(
        len(TOKENS), small_params.max_span_width
    )
    assert counts["filter_refine.pair.valid"] == k * (k - 1)
    assert counts["filter_refine.span.kept"] == len(result.span_filter.kept_indices)
    assert counts["filter_refine.pair.kept"] == len(result.pair_filter.kept_indices)
