"""Model parameter container, random initialization, and JSON round-trip.

A parameter file carries the dimensions, the type inventory, every weight
matrix (row-major nested lists), and the four bias tables.  The loader
validates every shape against the declared dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .numerics import AttentionWeights, FeedForwardParams, make_rng
from .representation import BiasTable, TypeInventory


@dataclass(frozen=True)
class ModelParams:
    dim: int
    heads: int
    hidden: int
    max_span_width: int
    inventory: TypeInventory
    span_proj: np.ndarray  # (2D, D)
    relation_proj: np.ndarray  # (2D, D)
    entity_head: FeedForwardParams  # D -> hidden -> |E|
    relation_head: FeedForwardParams  # D -> hidden -> |R|
    span_filter: FeedForwardParams  # D -> hidden -> 1
    relation_filter: FeedForwardParams
    span_read: AttentionWeights
    span_process_attn: AttentionWeights
    span_process_ffn: FeedForwardParams  # D -> hidden -> D
    relation_read: AttentionWeights
    relation_process_attn: AttentionWeights
    relation_process_ffn: FeedForwardParams
    bias: BiasTable

    def __post_init__(self):
        d = self.dim
        e = self.inventory.num_entity_types
        r = self.inventory.num_relation_types
        _check_dims(self.dim, self.heads, self.hidden, self.max_span_width)
        checks = [
            ("span_proj", np.asarray(self.span_proj).shape, (2 * d, d)),
            ("relation_proj", np.asarray(self.relation_proj).shape, (2 * d, d)),
            ("entity_head", (self.entity_head.in_dim, self.entity_head.out_dim), (d, e)),
            ("relation_head", (self.relation_head.in_dim, self.relation_head.out_dim), (d, r)),
            ("span_filter", (self.span_filter.in_dim, self.span_filter.out_dim), (d, 1)),
            ("relation_filter", (self.relation_filter.in_dim, self.relation_filter.out_dim), (d, 1)),
            ("span_process_ffn", (self.span_process_ffn.in_dim, self.span_process_ffn.out_dim), (d, d)),
            (
                "relation_process_ffn",
                (self.relation_process_ffn.in_dim, self.relation_process_ffn.out_dim),
                (d, d),
            ),
        ]
        for name, got, want in checks:
            if tuple(got) != want:
                raise ValueError(f"{name}: shape {got} != expected {want}")
        for name in ("span_read", "span_process_attn", "relation_read", "relation_process_attn"):
            attn: AttentionWeights = getattr(self, name)
            if attn.dim != d or attn.heads != self.heads:
                raise ValueError(f"{name}: attention dims disagree with model config")
        if self.bias.num_entity_types != e or self.bias.num_relation_types != r:
            raise ValueError("bias table dims disagree with the type inventory")
        object.__setattr__(self, "span_proj", np.asarray(self.span_proj, dtype=np.float64))
        object.__setattr__(self, "relation_proj", np.asarray(self.relation_proj, dtype=np.float64))


def _check_dims(dim: int, heads: int, hidden: int, max_span_width: int) -> None:
    if min(dim, heads, hidden, max_span_width) < 1:
        raise ValueError("dim, heads, hidden, and max_span_width must be positive")
    if dim % heads != 0:
        raise ValueError("heads must divide dim")


def _rand(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    return rng.normal(0.0, scale, size=shape)


def _rand_ffn(rng, d_in, hidden, d_out) -> FeedForwardParams:
    return FeedForwardParams(
        w1=_rand(rng, (d_in, hidden), 1.0 / np.sqrt(d_in)),
        b1=np.zeros(hidden),
        w2=_rand(rng, (hidden, d_out), 1.0 / np.sqrt(hidden)),
        b2=np.zeros(d_out),
    )


def _rand_attn(rng, dim, heads) -> AttentionWeights:
    dh = dim // heads
    scale = 1.0 / np.sqrt(dim)
    return AttentionWeights(
        wq=_rand(rng, (heads, dim, dh), scale),
        wk=_rand(rng, (heads, dim, dh), scale),
        wv=_rand(rng, (heads, dim, dh), scale),
        wo=_rand(rng, (heads, dh, dim), scale),
    )


def init_params(
    inventory: TypeInventory,
    dim: int = 64,
    heads: int = 4,
    hidden: int | None = None,
    max_span_width: int = 12,
    seed: int = 0,
    bias_scale: float = 0.1,
) -> ModelParams:
    """Random but fully deterministic toy parameters for the given inventory."""
    hidden = hidden if hidden is not None else dim
    _check_dims(dim, heads, hidden, max_span_width)
    rng = make_rng(seed)
    e = inventory.num_entity_types
    r = inventory.num_relation_types
    scale = 1.0 / np.sqrt(dim)
    return ModelParams(
        dim=dim,
        heads=heads,
        hidden=hidden,
        max_span_width=max_span_width,
        inventory=inventory,
        span_proj=_rand(rng, (2 * dim, dim), scale),
        relation_proj=_rand(rng, (2 * dim, dim), scale),
        entity_head=_rand_ffn(rng, dim, hidden, e),
        relation_head=_rand_ffn(rng, dim, hidden, r),
        span_filter=_rand_ffn(rng, dim, hidden, 1),
        relation_filter=_rand_ffn(rng, dim, hidden, 1),
        span_read=_rand_attn(rng, dim, heads),
        span_process_attn=_rand_attn(rng, dim, heads),
        span_process_ffn=_rand_ffn(rng, dim, hidden, dim),
        relation_read=_rand_attn(rng, dim, heads),
        relation_process_attn=_rand_attn(rng, dim, heads),
        relation_process_ffn=_rand_ffn(rng, dim, hidden, dim),
        bias=BiasTable(
            joint=_rand(rng, (e, e, r), bias_scale),
            head_relation=_rand(rng, (e, r), bias_scale),
            tail_relation=_rand(rng, (e, r), bias_scale),
            head_tail=_rand(rng, (e, e), bias_scale),
        ),
    )


def to_json(group) -> dict:
    """A weight group or bias table (a dataclass of arrays) as nested lists
    keyed by field name."""
    return {f.name: getattr(group, f.name).tolist() for f in fields(group)}


def from_json(cls, obj: dict):
    """The inverse of to_json; cls re-validates every shape."""
    return cls(**{f.name: np.asarray(obj[f.name]) for f in fields(cls)})


def bias_from_json(obj: dict) -> BiasTable:
    return from_json(BiasTable, obj)


bias_to_json = to_json

# ModelParams fields that hold a weight group or the bias tables
_GROUPS = {
    name: cls
    for name, cls in get_type_hints(ModelParams).items()
    if cls in (FeedForwardParams, AttentionWeights, BiasTable)
}


def params_to_json(params: ModelParams) -> dict:
    doc = {
        "version": 1,
        "dim": params.dim,
        "heads": params.heads,
        "hidden": params.hidden,
        "max_span_width": params.max_span_width,
        "entity_types": list(params.inventory.entity_types),
        "relation_types": list(params.inventory.relation_types),
        "span_proj": params.span_proj.tolist(),
        "relation_proj": params.relation_proj.tolist(),
    }
    doc.update((name, to_json(getattr(params, name))) for name in _GROUPS)
    return doc


def params_from_json(doc: dict) -> ModelParams:
    """Rebuild ModelParams from a JSON document; every shape is re-validated
    by the dataclass constructors."""
    inventory = TypeInventory(tuple(doc["entity_types"]), tuple(doc["relation_types"]))
    kwargs = {
        "dim": int(doc["dim"]),
        "heads": int(doc["heads"]),
        "hidden": int(doc["hidden"]),
        "max_span_width": int(doc["max_span_width"]),
        "inventory": inventory,
        "span_proj": np.asarray(doc["span_proj"]),
        "relation_proj": np.asarray(doc["relation_proj"]),
    }
    kwargs.update((name, from_json(cls, doc[name])) for name, cls in _GROUPS.items())
    return ModelParams(**kwargs)
