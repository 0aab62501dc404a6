"""Token embeddings, span enumeration, span/relation representations and
classification heads, and the additive type-bias table.

Both candidate sets are one kind of grid.  A representation is a
projection of concat(left, right) through a 2D x D matrix, computed in
factored form: the row for (a, b) is L[a] + R[b] with L = X @ W[:D] and
R = X @ W[D:], so each endpoint is projected once.  A CandidateGrid holds
the two factors of a row-major (A, W) grid whose cell (a, w), at flat
index a * W + w, is head[a] + tail[a * step + w]:

* spans of a sentence of length L with maximum width M: step 1, cell
  (start, width) is the span start..start+width; cells that run past the
  end stay in the grid but are invalid.
* ordered pairs over K spans: step 0, cell (head, tail); self-pairs stay in
  the grid but are invalid.

The grid ranks every cell through the factored first layer of the ranking
feed-forward, a block of grid rows at a time through one fixed buffer (a
stack's whole grids, while they fit in it), so the forward pass builds
neither the L*M span matrix nor the K*K pair grid; D-wide rows are built
only for the cells kept.  enumerate_spans, span_representations and
relation_representations are dense views of the same grids.

A CandidateGrid holds a stack of grids of one shape on a leading axis, one
per sentence of equal length (a sentence is a stack of one), or the one
grid of a plain matrix; each method runs one expression for both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .numerics import FeedForwardParams, feed_forward, make_rng, scalar_head

# Token vectors cached per (token, dim, seed); about 5 MB at dim 64.
TOKEN_CACHE_SIZE = 8192
# Cells ranked per step: the ranking buffer holds max(16, RANK_BLOCK // W) grid
# rows of W cells x hidden floats, of one grid or of whole grids of a stack.
RANK_BLOCK = 2048

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


def encode_tokens(tokens, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic toy embeddings as an (L, D) float64 array: each token's
    vector is drawn from a PRNG seeded by a stable hash of (token, seed),
    with entries in [-1, 1].

    The same token always maps to the same vector, on every platform.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise ValueError("token list must be non-empty")
    if dim < 1:
        raise ValueError("dim must be positive")
    if not -(10**63) < seed < 10**64:  # str(seed) keys the hash: 64 bytes at most
        raise ValueError("seed must be at most 64 characters long: it keys the token hash")
    # np.array copies, so callers never hold the cached (read-only) rows.
    return np.array([_token_vector(tok, dim, seed) for tok in tokens])


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


def enumerate_spans(length: int, max_width: int) -> list[SpanCandidate]:
    """All L*M candidates ordered by (start, width); (i, i+w) is invalid iff
    i+w runs past the last token."""
    if length < 1 or max_width < 1:
        raise ValueError("length and max_width must be positive")
    starts, widths = np.divmod(np.arange(length * max_width), max_width)
    ends = (starts + widths).tolist()
    return [SpanCandidate(s, e, e < length) for s, e in zip(starts.tolist(), ends)]


def valid_span_count(length: int, max_width: int) -> int:
    """sum(min(max_width, length - i) for i in range(length)), in closed form."""
    m = max(0, min(length, max_width))
    return m * (m + 1) // 2 + (max(length, 0) - m) * max_width


def _endpoint_factors(
    x: np.ndarray, w: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """(x @ w[:D], x @ w[D:]) for the 2D x D matrix w called `name`: the
    left and right factors of concat(x[a], x[b]) @ w = left[a] + right[b];
    x may be a stack of matrices."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    d = x.shape[-1]
    if w.shape != (2 * d, d):
        raise ValueError(f"{name} shape {w.shape} != {(2 * d, d)}")
    return x @ w[:d], x @ w[d:]


@dataclass(frozen=True)
class CandidateGrid:
    """A row-major (A, W) grid of candidate rows in factored form, or a stack.

    Cell (a, w) has flat index a * W + w and row head[a] + tail[a * step + w];
    no A*W x D matrix is built unless rows() is asked for every cell.  valid
    masks the flat cells.  A stack of grids carries a leading axis on head,
    tail and valid, and indexes cells per grid.  See the module docstring.
    """

    head: np.ndarray  # ([S,] A, D)
    tail: np.ndarray  # ([S,] (A - 1) * step + W, D)
    width: int
    step: int
    valid: np.ndarray  # ([S,] A * W) bool

    def endpoints(self, index) -> tuple[np.ndarray, np.ndarray]:
        """(a, a * step + w) of the given flat cells: a span's (start, end),
        a pair's (head, tail)."""
        a, w = np.divmod(np.asarray(index, dtype=np.intp), self.width)
        return a, a * self.step + w

    def rows(self, index) -> np.ndarray:
        """Rows of the given flat cells; of a stack's, (S, m) cells per grid."""
        a, t = self.endpoints(index)
        head = self.head.reshape(-1, *self.head.shape[-2:])  # (S, A, D)
        tail = self.tail.reshape(-1, *self.tail.shape[-2:])
        s = np.arange(len(head))[:, None]
        rows = head[s, a.reshape(len(head), -1)] + tail[s, t.reshape(len(head), -1)]
        return rows.reshape(*a.shape, head.shape[-1])

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """(S, A, W, ...) view of x[s, a * step + w] for a C-contiguous x."""
        shape = (len(x), self.head.shape[-2], self.width, *x.shape[2:])
        strides = (x.strides[0], self.step * x.strides[1], *x.strides[1:])
        return np.ndarray(shape, x.dtype, buffer=x, strides=strides)

    def rank(self, ffn: FeedForwardParams) -> np.ndarray:
        """Ranking score of every cell in flat order, invalid ones included,
        shaped like valid, through the factored first layer
        a = head @ W1 + b1, b = tail @ W1.  Scores w2 . relu(a + b) are
        summed as w2 . max(a, -b) + w2 . b, one pass over a (rows, W, hidden)
        buffer per block of rows, instead of an A*W x hidden one: a block is
        part of one grid's rows, or as many whole grids as fit.  It is filled
        with a's rows, then maxed in place against contiguous windows of -b,
        a still the first operand (it decides ties of -0.0 and 0.0, and NaNs)."""
        a, b = self.head @ ffn.w1 + ffn.b1, self.tail @ ffn.w1
        a, b = a.reshape(-1, *a.shape[-2:]), b.reshape(-1, *b.shape[-2:])  # (S, ., hidden)
        neg_b = self._windows(-b)
        (stack, n, hidden), width = a.shape, self.width
        rows = max(16, RANK_BLOCK // max(1, width))
        grids = min(stack, max(1, rows // max(1, n)))  # whole grids per block
        buf = np.empty((grids, min(rows, n), width, hidden))
        scores = np.empty((stack, n, width))
        for s in range(0, stack, grids):
            for lo in range(0, n, rows):
                block = buf[: stack - s, : n - lo]
                t, hi = s + len(block), lo + block.shape[1]
                np.copyto(block, a[s:t, lo:hi, None])
                np.maximum(block, neg_b[s:t, lo:hi], out=block)
                scalar_head(block, ffn, out=scores[s:t, lo:hi])
        scores += self._windows(scalar_head(b, ffn) + ffn.b2[0])
        return scores.reshape(self.valid.shape)


def span_grid(embeddings: np.ndarray, max_width: int, w_ent: np.ndarray) -> CandidateGrid:
    """The L*M span grid concat(x[start], x[end]) @ w_ent, step 1, of one
    sentence's (L, D) embeddings or of each of a stack's (S, L, D).

    The tail factor carries max_width - 1 zero rows past the sentence, so
    every window stays in bounds; the cells that read them are invalid.
    """
    if max_width < 1:
        raise ValueError("max_width must be positive")
    left, right = _endpoint_factors(embeddings, w_ent, "w_ent")
    *lead, length, dim = left.shape
    tail = np.concatenate([right, np.zeros((*lead, max_width - 1, dim))], axis=-2)
    starts, widths = np.divmod(np.arange(length * max_width), max_width)
    return CandidateGrid(left, tail, max_width, 1, np.tile(starts + widths < length, (*lead, 1)))


def pair_grid(span_reps: np.ndarray, w_rel: np.ndarray) -> CandidateGrid:
    """The K*K ordered-pair grid w_rel^T (head ++ tail), step 0, of one
    sentence's (K, D) span rows or of each of a stack's (S, K, D);
    self-pairs are cells but invalid."""
    head, tail = _endpoint_factors(span_reps, w_rel, "w_rel")
    *lead, k, _ = head.shape
    return CandidateGrid(head, tail, k, 0, np.tile(~np.eye(k, dtype=bool).ravel(), (*lead, 1)))


def span_representations(
    embeddings: np.ndarray, max_width: int, w_ent: np.ndarray
) -> np.ndarray:
    """Dense rows of span_grid(...): row k is grid cell k, zero if invalid."""
    grid = span_grid(embeddings, max_width, w_ent)
    rows = grid.rows(np.indices(grid.valid.shape)[-1])  # every cell of each grid
    rows[~grid.valid] = 0.0
    return rows


def relation_representations(
    span_reps: np.ndarray, w_rel: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
    """Dense rows of pair_grid(...), with pairs[i] = divmod(i, K) as (head,
    tail) and the valid mask of off-diagonal pairs."""
    grid = pair_grid(span_reps, w_rel)
    k = grid.width
    pairs = [(h, t) for h in range(k) for t in range(k)]
    return grid.rows(np.indices(grid.valid.shape)[-1]), pairs, grid.valid


def classify_spans(span_reps: np.ndarray, head_params) -> np.ndarray:
    """Raw entity-type logits, one row per span; column 0 is the null label."""
    if span_reps.shape[-2] < 1:
        raise ValueError("need at least one span representation")
    return feed_forward(span_reps, head_params)


def classify_relations(rel_reps: np.ndarray, head_params) -> np.ndarray:
    """Raw relation-type logits, one row per pair, if any; column 0 is the null label."""
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
    "SpanCandidate",
    "CandidateGrid",
    "BiasTable",
    "encode_tokens",
    "enumerate_spans",
    "valid_span_count",
    "span_grid",
    "span_representations",
    "pair_grid",
    "relation_representations",
    "classify_spans",
    "classify_relations",
]
