"""End-to-end forward pass for one sentence.

Tokens are hash-encoded into embeddings, every span up to the width limit
is ranked and pruned to the top K, survivors are classified into entity
logits, ordered pairs of survivors repeat the same filter/classify cycle
for relations, and the result is packed into a ScoredInstance ready for
any decoder.  Both candidate sets are CandidateGrids in factored form:
their L*M and K*K rows are ranked without being built, and only the kept
ones are.  Pure function of (tokens, params, config):
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .decode import ALGORITHMS, ScoredInstance
from .filter_refine import FilterResult, filter_and_refine
from .params import ModelParams
# forward never calls enumerate_spans, span_representations or
# relation_representations, the dense views of span_grid and pair_grid;
# they are imported only so that perfbench/spantrace.py finds them here.
from .representation import (  # noqa: F401
    TokenEmbeddings,
    classify_relations,
    classify_spans,
    encode_tokens,
    enumerate_spans,
    pair_grid,
    relation_representations,
    span_grid,
    span_representations,
    valid_span_count,
)


SHOWN_MAX = 80  # the longest repr of a value an error message prints


def shown(value: object) -> str:
    """repr(value) for a message, cut short after SHOWN_MAX characters."""
    text = repr(value)
    return text if len(text) <= SHOWN_MAX else text[:SHOWN_MAX] + "..."


def normalize_algorithm(name: str) -> str:
    """Accept CLI spellings (entity-first) for internal names (entity_first)."""
    canon = name.replace("-", "_")
    if canon not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {shown(name)}; pick from {ALGORITHMS}")
    return canon


def _finite(x: float) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a scoring or decoding run.

    k_span / k_rel of None mean the defaults min(valid spans, max(8, L))
    and k_span respectively.  budget of None means unbounded search.
    """

    algorithm: str = "joint"
    k_span: int | None = None
    k_rel: int | None = None
    depth: int = 1
    margin: float = 1.0
    seed: int = 0
    budget: int | None = None
    use_bias: bool = True

    def __post_init__(self) -> None:
        self._check_types()
        object.__setattr__(self, "algorithm", normalize_algorithm(self.algorithm))
        for name in ("k_span", "k_rel", "budget"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be positive when given")
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def _check_types(self) -> None:
        """TypeError naming the field, for values a config file can hold
        but the run cannot use (a bool is not taken for an int)."""
        for name in ("k_span", "k_rel", "depth", "seed", "budget"):
            v = getattr(self, name)
            if name in ("depth", "seed") or v is not None:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise TypeError(f"{name} must be an integer, got {shown(v)}")
        m = self.margin
        if isinstance(m, bool) or not isinstance(m, (int, float)) or not _finite(m):
            raise TypeError(f"margin must be a finite number, got {shown(m)}")
        if not isinstance(self.algorithm, str):
            raise TypeError(f"algorithm must be a string, got {shown(self.algorithm)}")
        if not isinstance(self.use_bias, bool):
            raise TypeError(f"use_bias must be true or false, got {shown(self.use_bias)}")


@dataclass(frozen=True)
class ForwardResult:
    """A scored sentence plus everything a diagnostic export needs.

    span_filter ranks the whole L*M span grid (flat index start * M +
    width, as enumerate_spans(instance.length, max_span_width) lists it)
    and pair_filter the K*K head-major pairs over the kept spans (flat
    index head * K + tail); both keep their full ranking-score vectors
    and, when depth is at least 1 and anything survived, the last READ
    attention (heads, K, L).
    """

    instance: ScoredInstance
    embeddings: TokenEmbeddings
    max_span_width: int
    span_filter: FilterResult
    pair_filter: FilterResult


def default_k_span(length: int, max_span_width: int) -> int:
    return min(valid_span_count(length, max_span_width), max(8, length))


def forward(
    tokens: Sequence[str],
    params: ModelParams,
    config: RunConfig | None = None,
) -> ForwardResult:
    """Score one sentence: embed, enumerate, filter, classify, twice over."""
    if config is None:
        config = RunConfig()
    tokens = tuple(tokens)
    if not tokens:
        raise ValueError("need at least one token")
    if any(not isinstance(t, str) or not t for t in tokens):
        raise ValueError("tokens must be non-empty strings")

    emb = encode_tokens(tokens, params.dim, config.seed)
    length = emb.length
    spans = span_grid(emb, params.max_span_width, params.span_proj)
    k_span = (
        config.k_span
        if config.k_span is not None
        else default_k_span(length, params.max_span_width)
    )
    span_fr = filter_and_refine(
        spans,
        emb.vectors,
        k_span,
        params.span_filter,
        params.span_read,
        params.span_process_attn,
        params.span_process_ffn,
        valid=spans.valid,
        depth=config.depth,
    )
    entity_logits = classify_spans(span_fr.representations, params.entity_head)

    pairs = pair_grid(span_fr.representations, params.relation_proj)
    k_rel = config.k_rel if config.k_rel is not None else k_span
    pair_fr = filter_and_refine(
        pairs,
        emb.vectors,
        k_rel,
        params.relation_filter,
        params.relation_read,
        params.relation_process_attn,
        params.relation_process_ffn,
        valid=pairs.valid,
        depth=config.depth,
    )
    relation_logits = classify_relations(pair_fr.representations, params.relation_head)

    starts, ends = spans.endpoints(span_fr.kept_indices)
    heads, tails = pairs.endpoints(pair_fr.kept_indices)
    instance = ScoredInstance(
        length=length,
        spans=tuple(zip(starts.tolist(), ends.tolist())),
        entity_logits=entity_logits,
        pairs=tuple(zip(heads.tolist(), tails.tolist())),
        relation_logits=relation_logits,
        inventory=params.inventory,
        bias=params.bias,
        tokens=tokens,
    )
    return ForwardResult(
        instance=instance,
        embeddings=emb,
        max_span_width=params.max_span_width,
        span_filter=span_fr,
        pair_filter=pair_fr,
    )


__all__ = [
    "ForwardResult",
    "RunConfig",
    "default_k_span",
    "forward",
    "normalize_algorithm",
]
