"""Parameter container checks: initialization, validation, JSON round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from spanrel import BiasTable, TypeInventory, init_params, params_from_json, params_to_json
from spanrel.formats import validate_document
from spanrel.params import from_json, to_json

from conftest import make_inventory


def test_init_params_shapes():
    inv = make_inventory(3, 2)
    p = init_params(inv, dim=16, heads=2, hidden=24, max_span_width=5, seed=0)
    assert p.dim == 16 and p.heads == 2 and p.max_span_width == 5
    assert p.span_proj.shape == (32, 16)
    assert p.relation_proj.shape == (32, 16)
    assert p.entity_head.out_dim == inv.num_entity_types
    assert p.relation_head.out_dim == inv.num_relation_types
    assert p.span_filter.out_dim == 1
    assert p.relation_filter.out_dim == 1
    assert p.bias.num_entity_types == inv.num_entity_types
    assert p.bias.num_relation_types == inv.num_relation_types


def test_init_params_deterministic():
    inv = make_inventory(2, 2)
    a = init_params(inv, dim=8, heads=2, seed=3)
    b = init_params(inv, dim=8, heads=2, seed=3)
    assert np.array_equal(a.span_proj, b.span_proj)
    assert np.array_equal(a.entity_head.w1, b.entity_head.w1)
    c = init_params(inv, dim=8, heads=2, seed=4)
    assert not np.array_equal(a.span_proj, c.span_proj)


def test_init_params_rejects_bad_dims():
    inv = make_inventory(2, 2)
    with pytest.raises(ValueError):
        init_params(inv, dim=10, heads=4)
    with pytest.raises(ValueError):
        init_params(inv, dim=8, heads=2, max_span_width=0)


def test_params_json_roundtrip():
    inv = TypeInventory.from_names(["Peop", "Org", "Loc"], ["Work_For", "Live_in"])
    p = init_params(inv, dim=8, heads=2, hidden=12, max_span_width=3, seed=9)
    doc = params_to_json(p)
    # the document is valid against the published schema and serializable
    validate_document(doc, "params")
    text = json.dumps(doc, sort_keys=True)
    back = params_from_json(json.loads(text))
    assert back.inventory == p.inventory
    assert back.dim == p.dim and back.heads == p.heads
    assert back.max_span_width == p.max_span_width
    assert np.array_equal(back.span_proj, p.span_proj)
    assert np.array_equal(back.relation_proj, p.relation_proj)
    for name in ("entity_head", "relation_head", "span_filter", "relation_filter"):
        a, b = getattr(back, name), getattr(p, name)
        for field in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    for name in ("span_read", "relation_read", "span_process_attn", "relation_process_attn"):
        a, b = getattr(back, name), getattr(p, name)
        for field in ("wq", "wk", "wv", "wo"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(back.bias.joint, p.bias.joint)
    assert np.array_equal(back.bias.head_tail, p.bias.head_tail)


def test_bias_json_roundtrip():
    inv = make_inventory(2, 3)
    p = init_params(inv, dim=8, heads=2, seed=1)
    doc = to_json(p.bias)
    back = from_json(BiasTable, doc)
    assert np.array_equal(back.combined(), p.bias.combined())


def test_params_from_json_rejects_corruption():
    inv = make_inventory(2, 2)
    doc = params_to_json(init_params(inv, dim=8, heads=2, seed=0))
    bad = json.loads(json.dumps(doc))
    bad["span_proj"] = [[0.0] * 8] * 3  # wrong row count
    with pytest.raises(ValueError):
        params_from_json(bad)
