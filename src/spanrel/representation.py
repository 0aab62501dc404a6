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
forward pass builds neither the L*M span matrix nor the K*K pair grid.
SpanRows and PairGrid hold the two factors of their grid and rank every
cell through the factored first layer of the ranking feed-forward,
(L @ W1 + b1)[a] + (R @ W1)[b]; D-wide rows are built only for the cells
kept.  The pair grid is ranked a block of head rows at a time through one
fixed buffer, so its memory grows with K, not K*K.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .numerics import NEG_SENTINEL, FeedForwardParams, feed_forward, make_rng, scalar_head

# Token vectors cached per (token, dim, seed); about 5 MB at dim 64.
TOKEN_CACHE_SIZE = 8192
# Head rows of the pair grid ranked per step: the ranking buffer is
# PAIR_BLOCK x K x hidden floats.
PAIR_BLOCK = 16

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
    # np.array copies, so callers never hold the cached (read-only) rows.
    vectors = np.array([_token_vector(tok, dim, seed) for tok in tokens])
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


def _endpoint_factors(
    x: np.ndarray, w: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """(x @ w[:D], x @ w[D:]) for the 2D x D matrix w called `name`: the
    left and right factors of concat(x[a], x[b]) @ w = left[a] + right[b]."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    d = x.shape[1]
    if w.shape != (2 * d, d):
        raise ValueError(f"{name} shape {w.shape} != {(2 * d, d)}")
    return x @ w[:d], x @ w[d:]


@dataclass(frozen=True)
class SpanRows:
    """The rows of a SpanGrid, concat(x[start], x[end]) @ w_ent, in factored
    form: row i is left[starts[i]] + right[ends[i]]; no L*M x D matrix is
    built unless rows() is asked for every index."""

    grid: SpanGrid
    left: np.ndarray  # (L, D) embeddings @ w_ent[:D]
    right: np.ndarray  # (L, D) embeddings @ w_ent[D:]

    def rows(self, index: np.ndarray) -> np.ndarray:
        """Representation rows of the given grid indices (valid ones only)."""
        index = np.asarray(index, dtype=np.intp)
        return self.left[self.grid.starts[index]] + self.right[self.grid.ends[index]]

    def rank(self, ffn: FeedForwardParams) -> np.ndarray:
        """Ranking score of every grid cell, the sentinel on invalid ones,
        through the factored first layer: no L*M x D x hidden product."""
        valid = self.grid.valid
        hidden = (self.left @ ffn.w1 + ffn.b1)[self.grid.starts[valid]]
        hidden += (self.right @ ffn.w1)[self.grid.ends[valid]]
        np.maximum(hidden, 0.0, out=hidden)
        scores = np.full(valid.shape, NEG_SENTINEL)
        scores[valid] = scalar_head(hidden, ffn) + ffn.b2[0]
        return scores


def span_rows(embeddings: TokenEmbeddings, grid: SpanGrid, w_ent: np.ndarray) -> SpanRows:
    """The factored rows of the span grid over one sentence's embeddings."""
    if grid.length != embeddings.length:
        raise ValueError("span grid length does not match the sentence")
    return SpanRows(grid, *_endpoint_factors(embeddings.vectors, w_ent, "w_ent"))


def span_representations(
    embeddings: TokenEmbeddings, spans: SpanGrid, w_ent: np.ndarray
) -> np.ndarray:
    """Project concat(start embedding, end embedding) through w_ent (2D x D).

    Row k is grid cell k; invalid cells get a zero row.  The dense form of
    span_rows(...): its rows equal SpanRows.rows() exactly.
    """
    if spans.length != embeddings.length:
        raise ValueError("span grid length does not match the sentence")
    left, right = _endpoint_factors(embeddings.vectors, w_ent, "w_ent")
    valid = spans.valid
    out = np.zeros((valid.size, embeddings.dim), dtype=np.float64)
    out[valid] = left[spans.starts[valid]] + right[spans.ends[valid]]
    return out


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

    def rank(self, ffn: FeedForwardParams) -> np.ndarray:
        """Ranking score of every pair in flat-index order, self-pairs
        included, through the factored first layer a = head_part @ W1 + b1,
        b = tail_part @ W1.  Scores w2 . relu(a + b) are summed as
        w2 . max(a, -b) + w2 . b, one pass over a PAIR_BLOCK x K x hidden
        buffer per block of head rows, instead of a K*K x hidden one."""
        k = self.k
        a = self.head_part @ ffn.w1 + ffn.b1
        b = self.tail_part @ ffn.w1
        neg_b = -b
        buf = np.empty((min(PAIR_BLOCK, k), k, a.shape[1]))
        scores = np.empty((k, k))
        for lo in range(0, k, PAIR_BLOCK):
            block = buf[: min(PAIR_BLOCK, k - lo)]
            np.maximum(a[lo : lo + PAIR_BLOCK, None, :], neg_b[None, :, :], out=block)
            scores[lo : lo + len(block)] = scalar_head(block, ffn)
        scores += scalar_head(b, ffn) + ffn.b2[0]
        return scores.ravel()

    def valid(self) -> np.ndarray:
        """Flat mask of off-diagonal (head != tail) pairs."""
        return ~np.eye(self.k, dtype=bool).ravel()


def pair_grid(span_reps: np.ndarray, w_rel: np.ndarray) -> PairGrid:
    """The factored K*K pair grid over K span representations."""
    return PairGrid(*_endpoint_factors(span_reps, w_rel, "w_rel"))


def relation_representations(
    span_reps: np.ndarray, w_rel: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
    """All K*K ordered-pair representations w_rel^T (head ++ tail), dense.

    Returns (reps, pairs, valid) where pairs[i] = divmod(i, K) is (head,
    tail) and valid marks off-diagonal pairs; self-pairs carry a
    representation row but are masked out downstream.  Rows equal
    pair_grid(...).rows() exactly.
    """
    grid = pair_grid(span_reps, w_rel)
    pairs = [(h, t) for h in range(grid.k) for t in range(grid.k)]
    return grid.rows(np.arange(grid.k * grid.k)), pairs, grid.valid()


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


__all__ = [
    "NULL_ENTITY",
    "NULL_RELATION",
    "TypeInventory",
    "TokenEmbeddings",
    "SpanCandidate",
    "SpanGrid",
    "SpanRows",
    "PairGrid",
    "BiasTable",
    "encode_tokens",
    "enumerate_spans",
    "valid_span_count",
    "span_representations",
    "span_rows",
    "pair_grid",
    "relation_representations",
    "classify_spans",
    "classify_relations",
]
