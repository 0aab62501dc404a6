"""An independent certificate for joint on pipeline-sized sentences.

Brute force stops at a handful of spans.  Here the joint objective is
written as an integer linear program (Roth & Yih 2004) and solved with
scipy's MILP solver, so joint's optimum is checked on sentences of 30-39
tokens scored by the real pipeline.  The pair values are derived from the
logits, the bias and ConstraintSet.allows alone, sharing nothing with the
decoder's search or its tables.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from spanrel import joint_decode, load_constraint_set, make_rng
from spanrel.params import init_params
from spanrel.pipeline import forward

sparse = pytest.importorskip("scipy.sparse")
optimize = pytest.importorskip("scipy.optimize")


def _sentences(count: int, lo: int, hi: int) -> list[tuple[str, ...]]:
    rng = make_rng(41)
    vocab = [
        "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), int(rng.integers(2, 9))))
        for _ in range(300)
    ]
    lengths = rng.integers(lo, hi + 1, size=count)
    return [tuple(vocab[int(i)] for i in rng.integers(0, len(vocab), n)) for n in lengths]


def _pair_values(inst, cons) -> np.ndarray:
    """V[p, eh, et]: the best a pair can add once its endpoints are typed."""
    n_ent = len(inst.inventory.entity_types)
    n_rel = len(inst.inventory.relation_types)
    bias = inst.bias.combined() if inst.bias is not None else np.zeros((n_ent, n_ent, n_rel))
    out = np.empty((len(inst.pairs), n_ent, n_ent))
    for p, row in enumerate(inst.relation_logits):
        for eh, et in itertools.product(range(n_ent), repeat=2):
            if eh == 0 or et == 0:
                out[p, eh, et] = row[0] if cons.consistency else row.max()
            else:
                out[p, eh, et] = max(
                    row[r] + bias[eh, et, r]
                    for r in range(n_rel)
                    if cons.allows(eh, et, r)
                )
    return out


def _milp_optimum(inst, cons) -> float:
    """Best objective over typings: x[i, e] per span, z[p, eh, et] per pair."""
    s, n_ent = inst.entity_logits.shape
    n_pairs = len(inst.pairs)
    values = _pair_values(inst, cons)
    nx, nz = s * n_ent, n_pairs * n_ent * n_ent

    def x(i, e):
        return i * n_ent + e

    def z(p, eh, et):
        return nx + (p * n_ent + eh) * n_ent + et

    rows, lo, hi = [], [], []

    def add(coefs: dict[int, float], low: float, high: float) -> None:
        rows.append(coefs)
        lo.append(low)
        hi.append(high)

    for i in range(s):  # one type per span
        add({x(i, e): 1.0 for e in range(n_ent)}, 1.0, 1.0)
    for p, (h, t) in enumerate(inst.pairs):
        add({z(p, eh, et): 1.0 for eh in range(n_ent) for et in range(n_ent)}, 1.0, 1.0)
        for eh, et in itertools.product(range(n_ent), repeat=2):  # z <= x, both ends
            add({z(p, eh, et): 1.0, x(h, eh): -1.0}, -np.inf, 0.0)
            add({z(p, eh, et): 1.0, x(t, et): -1.0}, -np.inf, 0.0)
    if cons.non_overlap:  # at most one typed span covers each token
        for tok in range(inst.length):
            cover = [i for i, (a, b) in enumerate(inst.spans) if a <= tok <= b]
            if len(cover) > 1:
                add({x(i, e): 1.0 for i in cover for e in range(1, n_ent)}, -np.inf, 1.0)

    triplets = [(r, col, v) for r, coefs in enumerate(rows) for col, v in coefs.items()]
    r_idx, c_idx, vals = zip(*triplets)
    matrix = sparse.csr_array((vals, (r_idx, c_idx)), shape=(len(rows), nx + nz))
    gain = np.concatenate([inst.entity_logits.ravel(), values.ravel()])
    res = optimize.milp(
        -gain,
        integrality=np.ones(nx + nz),
        bounds=optimize.Bounds(0.0, 1.0),
        constraints=optimize.LinearConstraint(matrix, lo, hi),
        options={"mip_rel_gap": 0.0},
    )
    assert res.success, res.message
    chosen = np.round(res.x)
    assert np.abs(res.x - chosen).max() < 1e-6
    return float(gain @ chosen)


def test_joint_matches_milp_on_pipeline_sentences():
    cons = load_constraint_set("conll04")
    params = init_params(cons.inventory, dim=64, heads=4, max_span_width=12, seed=0)
    for tokens in _sentences(8, 30, 39):
        inst = forward(tokens, params).instance
        got = joint_decode(inst, cons, use_bias=True, budget=200_000)
        assert got.score == pytest.approx(_milp_optimum(inst, cons), abs=1e-6)
