"""End-to-end forward pass for one sentence.

Tokens are hash-encoded into embeddings, every span up to the width limit
is ranked and pruned to the top K, survivors are classified into entity
logits, ordered pairs of survivors repeat the same filter/classify cycle
for relations, and the result is packed into a ScoredInstance ready for
any decoder.  Both candidate grids stay in factored form (SpanRows,
PairGrid): their L*M and K*K rows are ranked without being built, and
only the kept ones are.  Pure function of (tokens, params, config):
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .decode import ALGORITHMS, ScoredInstance
from .filter_refine import FilterResult, filter_and_refine
from .params import ModelParams
# forward calls neither span_representations nor relation_representations
# (their rows come from span_rows and pair_grid), but every representation
# step stays importable here, where perfbench/spantrace.py wraps this
# module's names.
from .representation import (  # noqa: F401
    SpanCandidate,
    SpanGrid,
    TokenEmbeddings,
    classify_relations,
    classify_spans,
    encode_tokens,
    enumerate_spans,
    pair_from_index,
    pair_grid,
    relation_representations,
    span_representations,
    span_rows,
    valid_span_count,
)


def normalize_algorithm(name: str) -> str:
    """Accept CLI spellings (entity-first) for internal names (entity_first)."""
    canon = name.replace("-", "_")
    if canon not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; pick from {ALGORITHMS}")
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
                    raise TypeError(f"{name} must be an integer, got {v!r}")
        m = self.margin
        if isinstance(m, bool) or not isinstance(m, (int, float)) or not _finite(m):
            raise TypeError(f"margin must be a finite number, got {m!r}")
        if not isinstance(self.algorithm, str):
            raise TypeError(f"algorithm must be a string, got {self.algorithm!r}")
        if not isinstance(self.use_bias, bool):
            raise TypeError(f"use_bias must be true or false, got {self.use_bias!r}")

    def with_overrides(self, **kwargs) -> RunConfig:
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ForwardResult:
    """A scored sentence plus everything a diagnostic export needs.

    span_candidates covers the full start-by-width grid; span_filter and
    pair_filter keep their full ranking-score vectors and, when depth is
    at least 1 and anything survived, the last READ attention (heads, K,
    L).  pair_candidates lists the ordered pairs over kept spans that the
    relation filter chose from; instance.pairs is its kept subset.  Both
    candidate lists are built on access; scoring never needs them.
    """

    instance: ScoredInstance
    embeddings: TokenEmbeddings
    max_span_width: int
    span_filter: FilterResult
    pair_filter: FilterResult

    @property
    def span_candidates(self) -> tuple[SpanCandidate, ...]:
        return tuple(enumerate_spans(self.instance.length, self.max_span_width))

    @property
    def pair_candidates(self) -> tuple[tuple[int, int], ...]:
        k = len(self.instance.spans)
        return tuple(pair_from_index(i, k) for i in range(k * k))


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
    spans = SpanGrid(length, params.max_span_width)
    # The rows of span_representations, without building all L*M of them.
    span_cells = span_rows(emb, spans, params.span_proj)
    k_span = (
        config.k_span
        if config.k_span is not None
        else default_k_span(length, params.max_span_width)
    )
    span_fr = filter_and_refine(
        span_cells,
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

    # The rows of relation_representations, without building all K*K of them.
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
        valid=pairs.valid(),
        depth=config.depth,
    )
    relation_logits = classify_relations(pair_fr.representations, params.relation_head)

    kept_spans = np.array(span_fr.kept_indices, dtype=np.intp)
    heads, tails = np.divmod(np.array(pair_fr.kept_indices, dtype=np.intp), pairs.k)
    instance = ScoredInstance(
        length=length,
        spans=tuple(zip(spans.starts[kept_spans].tolist(), spans.ends[kept_spans].tolist())),
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
