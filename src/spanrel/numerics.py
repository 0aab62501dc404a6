"""Dense numeric kernels shared by the scoring pipeline.

Everything here is a pure function over float64 numpy arrays: masked
softmax, scaled dot-product multi-head attention, two-layer feed-forward
blocks with ReLU, and the scalar head that ranking scores come from.  No
layer normalization and no dropout anywhere; attention and feed-forward
outputs are consumed through plain residual adds by the callers.
Identical inputs give bitwise-identical outputs on a given platform.

The matrix kernels run one expression over a stack of S matrices on a
leading axis, one per sentence (a sentence is a stack of one), or over a
plain matrix.  Each product keeps one sentence's shape, never one tall
(S * N)-row product, whose rows BLAS may round by where they sit.

The scalar head sums each row with np.einsum rather than a BLAS gemv: a
gemv rounds a row by where it sits (OpenBLAS treats the last N mod 4 rows
apart), so equal rows could score unequal and break top-k ties.  einsum
sums every row in the same order, so equal rows give equal scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Masking sentinel: large negative finite value instead of -inf so that
# stabilized softmax never computes (-inf) - (-inf).
NEG_SENTINEL = -1e30


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed gives an identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


def as_matrix(x, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-D float64 array or a stack of them, checking shapes."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D array or a stack of them, got shape {a.shape}")
    if rows is not None and a.shape[-2] != rows:
        raise ValueError(f"expected {rows} rows, got {a.shape[-2]}")
    if cols is not None and a.shape[-1] != cols:
        raise ValueError(f"expected {cols} cols, got {a.shape[-1]}")
    return a


def softmax(v: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Max-stabilized softmax over a vector, with optional boolean keep-mask.

    Masked positions come out exactly 0.  Raises if every position is masked.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("softmax expects a non-empty vector")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != v.shape:
            raise ValueError("mask shape does not match input")
        if not mask.any():
            raise ValueError("softmax: all positions masked")
        v = np.where(mask, v, NEG_SENTINEL)
    shifted = v - v.max()
    e = np.exp(shifted)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    return e / e.sum()


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis."""
    return _softmax_rows_in_place(np.array(m, dtype=np.float64))


def _softmax_rows_in_place(m: np.ndarray) -> np.ndarray:
    """softmax_rows(m), written over m: attention over K x L keys then holds
    one heads x K x L buffer, not four."""
    m -= np.maximum.reduce(m, axis=-1, keepdims=True)
    np.exp(m, out=m)
    m /= np.add.reduce(m, axis=-1, keepdims=True)
    return m


@dataclass(frozen=True)
class AttentionWeights:
    """Per-head projection matrices for multi-head attention.

    wq, wk, wv have shape (heads, dim, head_dim); wo has shape
    (heads, head_dim, dim).  heads * head_dim must equal dim.  wqkv stacks
    the three input projections, head by head, into one (dim, 3 * dim)
    matrix, so one product projects queries, keys and values.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def __post_init__(self):
        for name in ("wq", "wk", "wv", "wo"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        h, d, dh = self.wq.shape
        if self.wk.shape != (h, d, dh) or self.wv.shape != (h, d, dh):
            raise ValueError("query/key/value projections disagree in shape")
        if self.wo.shape != (h, dh, d):
            raise ValueError(f"output projection shape {self.wo.shape} != {(h, dh, d)}")
        if h * dh != d:
            raise ValueError(f"heads ({h}) * head_dim ({dh}) must equal dim ({d})")

    @property
    def heads(self) -> int:
        return self.wq.shape[0]

    @property
    def dim(self) -> int:
        return self.wq.shape[1]

    @property
    def head_dim(self) -> int:
        return self.wq.shape[2]

    @cached_property
    def wqkv(self) -> np.ndarray:
        """[wq[0] .. wq[h-1] | wk[0] .. | wv[0] ..], shaped (dim, 3 * dim)."""
        return np.concatenate([*self.wq, *self.wk, *self.wv], axis=1)


def _split_heads(x: np.ndarray, parts: int, heads: int) -> np.ndarray:
    """(..., N, parts * heads * hd) -> (parts, ..., heads, N, hd), a view."""
    x = x.reshape(*x.shape[:-1], parts, heads, -1)
    return x.transpose(-3, *range(x.ndim - 4), -2, -4, -1)


def multi_head_attention(
    queries: np.ndarray, keys_values: np.ndarray, params: AttentionWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention with per-head projections.

    Returns (output, attn): output has the queries' shape (..., Q, dim),
    attn (..., heads, Q, N), each attn row a distribution over the N key
    positions.  Scaling is 1/sqrt(head_dim).
    """
    q = as_matrix(queries, cols=params.dim)
    kv = as_matrix(keys_values, cols=params.dim)
    if kv.shape[-2] == 0:
        raise ValueError("attention needs at least one key/value position")
    scale = 1.0 / math.sqrt(params.head_dim)
    # Every head at once from the stacked projection, in one product when
    # keys_values is queries (self-attention); a column of a product is the
    # same dot product however many columns sit beside it.
    d, w, h = params.dim, params.wqkv, params.heads
    if kv is q:
        qh, kh, vh = _split_heads(q @ w, 3, h)
    else:
        (qh,) = _split_heads(q @ w[:, :d], 1, h)
        kh, vh = _split_heads(kv @ w[:, d:], 2, h)
    logits = qh @ kh.swapaxes(-1, -2)
    logits *= scale
    attn = _softmax_rows_in_place(logits)
    # The heads' outputs added in head order onto 0.0, one at a time.
    return np.add.reduce((attn @ vh) @ params.wo, axis=-3, initial=0.0), attn


@dataclass(frozen=True)
class FeedForwardParams:
    """Two-layer affine block with a ReLU between the layers."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("feed-forward weights must be 2-D")
        if self.b1.shape != (self.w1.shape[1],):
            raise ValueError("first bias does not match hidden width")
        if self.w2.shape[0] != self.w1.shape[1]:
            raise ValueError("hidden widths disagree between layers")
        if self.b2.shape != (self.w2.shape[1],):
            raise ValueError("second bias does not match output width")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[1]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def feed_forward(x: np.ndarray, params: FeedForwardParams) -> np.ndarray:
    """affine -> ReLU -> affine, over the last axis of x."""
    x = as_matrix(x, cols=params.in_dim)
    return relu(x @ params.w1 + params.b1) @ params.w2 + params.b2


def scalar_head(
    hidden: np.ndarray, params: FeedForwardParams, out: np.ndarray | None = None
) -> np.ndarray:
    """hidden @ w2 for a one-column second layer, over hidden's last axis,
    summed row by row in one order wherever the row sits (see the module
    docstring); the bias b2 is the caller's to add.  out, if given, is an
    array shaped like hidden without its last axis that receives the scores."""
    if params.out_dim != 1:
        raise ValueError("the scalar head needs a one-column second layer")
    return np.einsum("...h,h->...", hidden, params.w2[:, 0], out=out)
