"""Token embeddings, span enumeration, span/relation representations and
classification heads, and the additive type-bias table.

Span candidates for a sentence of length L with maximum width M are laid out
as a fixed L*M grid ordered by (start, width); candidates that would run past
the end of the sentence are kept in the grid but marked invalid.  Grid index
i is the span starting at i // M and ending at i // M + i % M.  Relation
candidates over K spans are the K*K ordered pairs in head-major order
(flat index = head * K + tail); self-pairs are generated but marked invalid.

Span and pair rows are projections of concat(left, right) through a 2D x D
matrix, computed in factored form: the row for (a, b) is L[a] + R[b] with
L = X @ W[:D] and R = X @ W[D:], so each endpoint is projected once.  The
forward pass never materializes the K*K pair grid: PairGrid holds the two
K x D factors, ranks pairs through the factored first layer of the ranking
feed-forward and builds D-wide rows only for the pairs it keeps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .numerics import feed_forward, make_rng

# Token vectors cached per (token, dim, seed); about 5 MB at dim 64.
TOKEN_CACHE_SIZE = 8192

NULL_ENTITY = "non-entity"
NULL_RELATION = "no-relation"


@dataclass(frozen=True)
class TypeInventory:
    """Ordered entity and relation type names; index 0 is the null label."""

    entity_types: tuple[str, ...]
    relation_types: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entity_types", tuple(self.entity_types))
        object.__setattr__(self, "relation_types", tuple(self.relation_types))
        for kind, names, null in (
            ("entity", self.entity_types, NULL_ENTITY),
            ("relation", self.relation_types, NULL_RELATION),
        ):
            if len(names) < 1 or names[0] != null:
                raise ValueError(f"{kind} types must start with the reserved label {null!r}")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {kind} type names: {names}")
            if names.count(null) != 1:
                raise ValueError(f"reserved label {null!r} must appear exactly once")

    @property
    def num_entity_types(self) -> int:
        return len(self.entity_types)

    @property
    def num_relation_types(self) -> int:
        return len(self.relation_types)

    def entity_index(self, name: str) -> int:
        try:
            return self.entity_types.index(name)
        except ValueError:
            raise KeyError(f"unknown entity type {name!r}") from None

    def relation_index(self, name: str) -> int:
        try:
            return self.relation_types.index(name)
        except ValueError:
            raise KeyError(f"unknown relation type {name!r}") from None

    @staticmethod
    def from_names(entity_types, relation_types) -> "TypeInventory":
        """Build an inventory from plain type names, prepending the nulls."""
        return TypeInventory(
            (NULL_ENTITY, *entity_types),
            (NULL_RELATION, *relation_types),
        )


@dataclass(frozen=True)
class TokenEmbeddings:
    tokens: tuple[str, ...]
    vectors: np.ndarray  # (L, D) float64

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.float64))
        if len(self.tokens) < 1:
            raise ValueError("need at least one token")
        if self.vectors.shape[0] != len(self.tokens):
            raise ValueError("one vector per token required")

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def encode_tokens(tokens, dim: int, seed: int = 0) -> TokenEmbeddings:
    """Deterministic toy embeddings: each token's vector is drawn from a PRNG
    seeded by a stable hash of (token, seed), with entries in [-1, 1].

    The same token always maps to the same vector, on every platform.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise ValueError("token list must be non-empty")
    if dim < 1:
        raise ValueError("dim must be positive")
    # np.stack copies, so callers never hold the cached (read-only) rows.
    vectors = np.stack([_token_vector(tok, dim, seed) for tok in tokens])
    return TokenEmbeddings(tokens, vectors)


@lru_cache(maxsize=TOKEN_CACHE_SIZE)
def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=str(seed).encode("utf-8")
    ).digest()
    vector = make_rng(int.from_bytes(digest, "little")).uniform(-1.0, 1.0, size=dim)
    vector.flags.writeable = False
    return vector


@dataclass(frozen=True)
class SpanCandidate:
    start: int
    end: int  # inclusive
    valid: bool

    @property
    def width(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class SpanGrid:
    """The L*M candidate grid as index arrays: starts, inclusive ends and
    the valid mask, in grid order (see the module docstring)."""

    length: int
    max_width: int
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    valid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.length < 1 or self.max_width < 1:
            raise ValueError("length and max_width must be positive")
        starts, widths = np.divmod(np.arange(self.length * self.max_width), self.max_width)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", starts + widths)
        object.__setattr__(self, "valid", self.ends < self.length)

    def span(self, index: int) -> tuple[int, int]:
        """(start, end) of grid index `index`."""
        start, width = divmod(index, self.max_width)
        return start, start + width


def enumerate_spans(length: int, max_width: int) -> list[SpanCandidate]:
    """All L*M candidates ordered by (start, width); (i, i+w) is invalid iff
    i+w runs past the last token."""
    grid = SpanGrid(length, max_width)
    return [
        SpanCandidate(start, end, valid)
        for start, end, valid in zip(
            grid.starts.tolist(), grid.ends.tolist(), grid.valid.tolist()
        )
    ]


def valid_span_count(length: int, max_width: int) -> int:
    return sum(min(max_width, length - i) for i in range(length))


def _endpoint_factors(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x @ w[:D], x @ w[D:]) for a 2D x D matrix w: the left and right
    factors of concat(x[a], x[b]) @ w = left[a] + right[b]."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    d = x.shape[1]
    return x @ w[:d], x @ w[d:]


def span_representations(
    embeddings: TokenEmbeddings, spans: SpanGrid | list[SpanCandidate], w_ent: np.ndarray
) -> np.ndarray:
    """Project concat(start embedding, end embedding) through w_ent (2D x D).

    Row k corresponds to spans[k] (a SpanGrid or any list of candidates);
    invalid candidates get a zero row.
    """
    w_ent = np.asarray(w_ent, dtype=np.float64)
    d = embeddings.dim
    if w_ent.shape != (2 * d, d):
        raise ValueError(f"w_ent shape {w_ent.shape} != {(2 * d, d)}")
    if isinstance(spans, SpanGrid):
        starts, ends, valid = spans.starts, spans.ends, spans.valid
    else:
        starts = np.array([s.start for s in spans], dtype=np.int64)
        ends = np.array([s.end for s in spans], dtype=np.int64)
        valid = np.array([s.valid for s in spans], dtype=bool)
    starts, ends = starts[valid], ends[valid]
    out = np.zeros((len(valid), d), dtype=np.float64)
    if starts.size:
        if starts.min() < 0 or ends.max() >= embeddings.length:
            raise IndexError("span index out of range for the sentence")
        left, right = _endpoint_factors(embeddings.vectors, w_ent)
        out[valid] = left[starts] + right[ends]
    return out


def pair_index(head: int, tail: int, k: int) -> int:
    """Flat index of the ordered pair (head, tail) in the K*K head-major grid."""
    if not (0 <= head < k and 0 <= tail < k):
        raise IndexError(f"pair ({head}, {tail}) out of range for K={k}")
    return head * k + tail


def pair_from_index(index: int, k: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    if not (0 <= index < k * k):
        raise IndexError(f"pair index {index} out of range for K={k}")
    return divmod(index, k)


@dataclass(frozen=True)
class PairGrid:
    """The K*K ordered-pair grid w_rel^T (head ++ tail) in factored form.

    Row head * K + tail is head_part[head] + tail_part[tail]; no K*K x D
    matrix is built unless rows() is asked for every index.
    """

    head_part: np.ndarray  # (K, D) span_reps @ w_rel[:D]
    tail_part: np.ndarray  # (K, D) span_reps @ w_rel[D:]

    @property
    def k(self) -> int:
        return self.head_part.shape[0]

    def rows(self, index: np.ndarray) -> np.ndarray:
        """Representation rows of the given flat pair indices."""
        heads, tails = np.divmod(np.asarray(index, dtype=np.int64), self.k)
        return self.head_part[heads] + self.tail_part[tails]

    def affine(self, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """rows(all) @ w + bias, shaped (K*K, w's width), computed as
        (head_part @ w + bias)[head] + (tail_part @ w)[tail]: K*K adds per
        output column instead of a K*K x D x width product."""
        head = self.head_part @ w + bias
        tail = self.tail_part @ w
        return (head[:, None, :] + tail[None, :, :]).reshape(self.k * self.k, -1)

    def valid(self) -> np.ndarray:
        """Flat mask of off-diagonal (head != tail) pairs."""
        return ~np.eye(self.k, dtype=bool).ravel()

    def pairs(self) -> list[tuple[int, int]]:
        """Every (head, tail) in flat-index order."""
        return [(h, t) for h in range(self.k) for t in range(self.k)]


def pair_grid(span_reps: np.ndarray, w_rel: np.ndarray) -> PairGrid:
    """The factored K*K pair grid over K span representations."""
    span_reps = np.asarray(span_reps, dtype=np.float64)
    d = span_reps.shape[1]
    w_rel = np.asarray(w_rel, dtype=np.float64)
    if w_rel.shape != (2 * d, d):
        raise ValueError(f"w_rel shape {w_rel.shape} != {(2 * d, d)}")
    return PairGrid(*_endpoint_factors(span_reps, w_rel))


def relation_representations(
    span_reps: np.ndarray, w_rel: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
    """All K*K ordered-pair representations w_rel^T (head ++ tail), dense.

    Returns (reps, pairs, valid) where pairs[i] = pair_from_index(i, K) and
    valid marks off-diagonal pairs; self-pairs carry a representation row but
    are masked out downstream.  Rows equal pair_grid(...).rows() exactly.
    """
    grid = pair_grid(span_reps, w_rel)
    return grid.rows(np.arange(grid.k * grid.k)), grid.pairs(), grid.valid()


def classify_spans(span_reps: np.ndarray, head_params) -> np.ndarray:
    """Raw entity-type logits, one row per span; column 0 is the null label."""
    if span_reps.shape[0] < 1:
        raise ValueError("need at least one span representation")
    return feed_forward(span_reps, head_params)


def classify_relations(rel_reps: np.ndarray, head_params) -> np.ndarray:
    """Raw relation-type logits, one row per pair; column 0 is the null label."""
    if rel_reps.shape[0] == 0:
        return np.zeros((0, head_params.out_dim))
    return feed_forward(rel_reps, head_params)


@dataclass(frozen=True)
class BiasTable:
    """Additive affinity b(h, t, r) decomposed into four lookup tables.

    joint has shape (E, E, R); head_relation and tail_relation (E, R);
    head_tail (E, E).  Entries are finite except deliberately injected
    NEG_SENTINEL values that make forbidden triples unwinnable in an argmax.
    The table keeps read-only float64 copies of its inputs.
    """

    joint: np.ndarray
    head_relation: np.ndarray
    tail_relation: np.ndarray
    head_tail: np.ndarray

    def __post_init__(self):
        for name in ("joint", "head_relation", "tail_relation", "head_tail"):
            table = np.array(getattr(self, name), dtype=np.float64)
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        e, e2, r = self.joint.shape
        if e != e2:
            raise ValueError("joint table must be square in the entity axes")
        if self.head_relation.shape != (e, r) or self.tail_relation.shape != (e, r):
            raise ValueError("head/tail-relation tables disagree with the joint table")
        if self.head_tail.shape != (e, e):
            raise ValueError("head-tail table disagrees with the joint table")

    @property
    def num_entity_types(self) -> int:
        return self.joint.shape[0]

    @property
    def num_relation_types(self) -> int:
        return self.joint.shape[2]

    def combined(self) -> np.ndarray:
        """Dense read-only (E, E, R) tensor of b(h, t, r) sums, built once."""
        return self._combined

    @cached_property
    def _combined(self) -> np.ndarray:
        out = (
            self.joint
            + self.head_relation[:, None, :]
            + self.tail_relation[None, :, :]
            + self.head_tail[:, :, None]
        )
        out.flags.writeable = False
        return out

    @staticmethod
    def zeros(num_entity_types: int, num_relation_types: int) -> "BiasTable":
        e, r = num_entity_types, num_relation_types
        return BiasTable(np.zeros((e, e, r)), np.zeros((e, r)), np.zeros((e, r)), np.zeros((e, e)))


def bias_lookup(head_type: int, tail_type: int, rel_type: int, table: BiasTable) -> float:
    """b(h, t, r) = joint[h,t,r] + head_relation[h,r] + tail_relation[t,r] + head_tail[h,t]."""
    e, r = table.num_entity_types, table.num_relation_types
    if not (0 <= head_type < e and 0 <= tail_type < e):
        raise IndexError(f"entity type out of range: ({head_type}, {tail_type})")
    if not (0 <= rel_type < r):
        raise IndexError(f"relation type out of range: {rel_type}")
    return float(
        table.joint[head_type, tail_type, rel_type]
        + table.head_relation[head_type, rel_type]
        + table.tail_relation[tail_type, rel_type]
        + table.head_tail[head_type, tail_type]
    )


def apply_bias(
    rel_logits: np.ndarray,
    head_types: np.ndarray,
    tail_types: np.ndarray,
    table: BiasTable,
) -> np.ndarray:
    """Add b(h, t, r) row-wise to relation logits, given each candidate's
    predicted head and tail entity types.

    Sentinel entries propagate, so a forbidden triple can never win the
    row argmax.
    """
    rel_logits = np.asarray(rel_logits, dtype=np.float64)
    head_types = np.asarray(head_types, dtype=np.int64)
    tail_types = np.asarray(tail_types, dtype=np.int64)
    if head_types.shape != (rel_logits.shape[0],) or tail_types.shape != (rel_logits.shape[0],):
        raise ValueError("one head and tail type required per relation candidate")
    if rel_logits.shape[1] != table.num_relation_types:
        raise ValueError("logit width does not match the bias table")
    return rel_logits + table.combined()[head_types, tail_types, :]


__all__ = [
    "NULL_ENTITY",
    "NULL_RELATION",
    "TypeInventory",
    "TokenEmbeddings",
    "SpanCandidate",
    "SpanGrid",
    "PairGrid",
    "BiasTable",
    "encode_tokens",
    "enumerate_spans",
    "valid_span_count",
    "span_representations",
    "pair_index",
    "pair_from_index",
    "pair_grid",
    "relation_representations",
    "classify_spans",
    "classify_relations",
    "bias_lookup",
    "apply_bias",
]
