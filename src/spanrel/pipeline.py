"""End-to-end forward pass over sentences.

Tokens are hash-encoded into embeddings, every span up to the width limit
is ranked and pruned to the top K, survivors are classified into entity
logits, ordered pairs of survivors repeat the same filter/classify cycle
for relations, and the result is packed into a ScoredInstance ready for
any decoder.  Both candidate sets are CandidateGrids in factored form:
their L*M and K*K rows are ranked without being built, and only the kept
ones are.  Pure function of (tokens, params, config):
identical inputs give bit-identical outputs.

forward scores one sentence, forward_stacks many in stacks of equal length,
every stage once per stack on a leading axis; every product keeps one
sentence's shape, so a sentence gets the same bits in any stack as alone."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .decode import ALGORITHMS, ScoredInstance
from .filter_refine import FilterResult, RaggedStackError, filter_and_refine
from .params import ModelParams
# forward never calls enumerate_spans, span_representations or
# relation_representations, the dense views of span_grid and pair_grid;
# they are imported only so that perfbench/spantrace.py finds them here.
from .representation import (  # noqa: F401
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
# The cells, L * max(L, D) per sentence, that one stack may hold: 8 sentences
# at L = D = 64.  A count would not do: at L = 10 a stack of 16 is 10% faster
# per sentence than one of 8, and 8 sentences of 320 tokens peak at 8 times one.
STACK_CELLS = 8 * 64 * 64


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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def _check_types(self) -> None:
        """TypeError naming the field, for values a library caller can pass
        but the run cannot use (a bool is not taken for an int)."""
        for name in ("k_span", "k_rel", "depth", "seed", "budget"):
            v = getattr(self, name)
            if name in ("depth", "seed") or v is not None:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise TypeError(f"{name} must be an integer, got {shown(v)}")
        if not isinstance(self.algorithm, str):
            raise TypeError(f"algorithm must be a string, got {shown(self.algorithm)}")
        if not isinstance(self.use_bias, bool):
            raise TypeError(f"use_bias must be true or false, got {shown(self.use_bias)}")


# The config of a call that passes none; built once, as RunConfig is frozen.
_DEFAULT_CONFIG = RunConfig()


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
    max_span_width: int
    span_filter: FilterResult
    pair_filter: FilterResult


def default_k_span(length: int, max_span_width: int) -> int:
    return min(valid_span_count(length, max_span_width), max(8, length))


def forward(
    tokens: Sequence[str], params: ModelParams, config: RunConfig | None = None
) -> ForwardResult:
    """Score one sentence as forward_stacks scores it, as a stack of one."""
    return _forward_stack([_checked(tokens)], params, config or _DEFAULT_CONFIG)[0]


def forward_stacks(
    sentences: Sequence[Sequence[str]], params: ModelParams, config: RunConfig | None = None
) -> Iterator[tuple[int, ForwardResult]]:
    """(input position, ForwardResult) of every sentence, shortest first, in
    stacks of equal-length sentences, each stage once per stack.  A stack of
    length L holds at most max(1, STACK_CELLS // (L * max(L, dim))) sentences,
    and a length's sentences are split into as few stacks as that allows,
    their sizes differing by at most one.  Only the current stack's results
    are held, and every sentence is checked before any is scored.  Results
    share no memory, but each one's arrays are views that keep its stack's
    arrays alive."""
    config = config or _DEFAULT_CONFIG
    sentences = [_checked(tokens) for tokens in sentences]
    order = sorted(range(len(sentences)), key=lambda pos: len(sentences[pos]))
    for length, same in groupby(order, key=lambda pos: len(sentences[pos])):
        same = list(same)
        cap = max(1, STACK_CELLS // (length * max(length, params.dim)))
        count = -(-len(same) // cap)
        for i in range(count):
            group = same[i * len(same) // count : (i + 1) * len(same) // count]
            stack = [sentences[pos] for pos in group]
            try:
                results = _forward_stack(stack, params, config)
            except RaggedStackError:  # a stack of one never is
                results = [_forward_stack([tokens], params, config)[0] for tokens in stack]
            while results:  # each result is dropped here once handed out
                yield group.pop(), results.pop()


def _checked(tokens: Sequence[str]) -> tuple[str, ...]:
    tokens = tuple(tokens)
    if not tokens:
        raise ValueError("need at least one token")
    if any(not isinstance(t, str) or not t for t in tokens):
        raise ValueError("tokens must be non-empty strings")
    return tokens


def _forward_stack(
    sentences: list[tuple[str, ...]], params: ModelParams, config: RunConfig
) -> list[ForwardResult]:
    """Sentences of one length, a lone one too, as one (S, L, D) stack, each
    stage once; result s holds views [s] of the stack's arrays."""
    count, length, width = len(sentences), len(sentences[0]), params.max_span_width
    vectors = np.array([encode_tokens(tokens, params.dim, config.seed) for tokens in sentences])
    spans = span_grid(vectors, width, params.span_proj)
    k_span = config.k_span if config.k_span is not None else default_k_span(length, width)
    span_fr = filter_and_refine(
        spans, vectors, k_span, params.span_filter, params.span_read,
        params.span_process_attn, params.span_process_ffn, valid=spans.valid, depth=config.depth,
    )
    entity_logits = classify_spans(span_fr.representations, params.entity_head)

    pairs = pair_grid(span_fr.representations, params.relation_proj)
    k_rel = config.k_rel if config.k_rel is not None else k_span
    pair_fr = filter_and_refine(
        pairs, vectors, k_rel, params.relation_filter, params.relation_read,
        params.relation_process_attn, params.relation_process_ffn, valid=pairs.valid,
        depth=config.depth,
    )
    relation_logits = classify_relations(pair_fr.representations, params.relation_head)

    starts, ends = spans.endpoints(np.array(span_fr.kept_indices).reshape(count, -1))
    heads, tails = pairs.endpoints(np.array(pair_fr.kept_indices).reshape(count, -1))
    columns = zip(
        sentences, zip(starts.tolist(), ends.tolist()), entity_logits,
        zip(heads.tolist(), tails.tolist()), relation_logits, _slices(span_fr), _slices(pair_fr),
    )
    return [
        ForwardResult(
            ScoredInstance(length, tuple(zip(*se)), ent, tuple(zip(*ht)), rel, params.inventory,
                           params.bias, tokens),
            width, span_part, pair_part,
        )
        for tokens, se, ent, ht, rel, span_part, pair_part in columns
    ]


def _slices(result: FilterResult) -> Iterator[FilterResult]:
    """Each sentence's FilterResult of a stack's, its arrays views [s]."""
    m, attn = result.representations.shape[-2], result.read_attention
    for s, (reps, scores) in enumerate(zip(result.representations, result.ranking_scores)):
        yield FilterResult(result.kept_indices[s * m : (s + 1) * m], reps, scores,
                           None if attn is None else attn[s])


__all__ = [
    "ForwardResult",
    "RunConfig",
    "default_k_span",
    "forward",
    "forward_stacks",
    "normalize_algorithm",
]
