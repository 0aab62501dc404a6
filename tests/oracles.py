"""Brute-force oracles for the decoder tests (tiny inputs only).

Each oracle re-derives a decoder's optimum by enumeration, using only
spanrel's public API, so the tests can cross-check the fast paths.
Costs are exponential in the number of spans and pairs.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from spanrel import (
    NEG_SENTINEL,
    ConstraintSet,
    DecodedStructure,
    ScoredInstance,
    check_constraints,
    spans_overlap,
    structure_score,
)
from spanrel.decode import NULL


def _bias_table(instance: ScoredInstance, use_bias: bool) -> np.ndarray | None:
    return instance.bias.combined() if use_bias and instance.bias is not None else None


def _best_relation(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    table: np.ndarray | None,
    p: int,
    eh: int,
    et: int,
) -> tuple[int, float]:
    """Exact best label and value for pair p given endpoint types.

    A typed pair maximizes logit plus bias over the labels the whitelist
    permits; a pair with a null endpoint is forced null under the endpoint
    rule, and otherwise takes its raw-logit argmax.  Ties go to the lower
    label index.
    """
    row = instance.relation_logits[p].tolist()
    if eh == NULL or et == NULL:
        r = NULL if constraints.consistency else int(np.argmax(row))
        return r, row[r]
    best_r, best_v = NULL, -np.inf
    for r, logit in enumerate(row):
        if constraints.allows(eh, et, r):
            v = logit + (float(table[eh, et, r]) if table is not None else 0.0)
            if v > best_v:
                best_r, best_v = r, v
    return best_r, best_v


def oracle_subset_max(
    candidates: Sequence[tuple[int, int, float]]
) -> tuple[float, tuple[int, ...]]:
    """Best non-overlapping subset by full 2**n sweep; n capped at 20.

    Returns (total, indices); on ties the smallest subset bitmask wins,
    so the empty set beats any zero-weight selection.
    """
    n = len(candidates)
    if n == 0:
        return 0.0, ()
    if n > 20:
        raise ValueError("subset sweep limited to 20 intervals")
    w = np.array([c[2] for c in candidates], dtype=np.float64)
    subsets = np.arange(1 << n, dtype=np.int64)
    bits = ((subsets[:, None] >> np.arange(n)) & 1).astype(bool)
    totals = bits @ w
    feasible = np.ones(1 << n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if spans_overlap(candidates[i][:2], candidates[j][:2]):
                feasible &= ((subsets >> i) & (subsets >> j) & 1) == 0
    totals = np.where(feasible, totals, -np.inf)
    best = int(np.argmax(totals))
    chosen = tuple(i for i in range(n) if (best >> i) & 1)
    return float(totals[best]), chosen


def oracle_joint(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool = True,
) -> DecodedStructure:
    """Exhaustive joint maximum over entity labelings.

    Enumerates full entity labelings in exactly the search order of
    joint_decode (each pair resolved label by label in _best_relation)
    with strict improvement, so tie outcomes match the solver leaf for
    leaf.  Cost |entity types| ** |spans|.
    """
    s = len(instance.spans)
    ent = instance.entity_logits
    table = _bias_table(instance, use_bias)
    spread = ent.max(axis=1) - ent.min(axis=1)
    span_order = sorted(range(s), key=lambda i: (-spread[i], i))
    label_order = [
        sorted(range(ent.shape[1]), key=lambda c: (-ent[i, c], c)) for i in range(s)
    ]
    spans = instance.spans
    pairs = instance.pairs

    best_score = -np.inf
    best: DecodedStructure | None = None
    for combo in itertools.product(*(label_order[i] for i in span_order)):
        labels = [NULL] * s
        for k, sp in enumerate(span_order):
            labels[sp] = combo[k]
        if constraints.non_overlap:
            live = [i for i in range(s) if labels[i] != NULL]
            if any(
                spans_overlap(spans[a], spans[b])
                for a, b in itertools.combinations(live, 2)
            ):
                continue
        total = sum(float(ent[i, labels[i]]) for i in range(s))
        rels = [NULL] * len(pairs)
        for p, (h, t) in enumerate(pairs):
            r, v = _best_relation(instance, constraints, table, p, labels[h], labels[t])
            rels[p] = r
            total += v
        if total > best_score:
            best_score = total
            best = DecodedStructure(tuple(labels), tuple(rels), total)
    assert best is not None
    return best


def oracle_joint_full(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool = True,
) -> float:
    """Best feasible score over the full cartesian label space.

    Enumerates entity AND relation labels outright, scoring with
    structure_score and filtering with check_constraints only; shares no
    search machinery with the solvers.  Exponential in both grids, so
    micro inputs only.
    """
    n_ent = instance.entity_logits.shape[1]
    n_rel = instance.relation_logits.shape[1]
    best = -np.inf
    for ents in itertools.product(range(n_ent), repeat=len(instance.spans)):
        for rels in itertools.product(range(n_rel), repeat=len(instance.pairs)):
            st = DecodedStructure(tuple(ents), tuple(rels), 0.0)
            if check_constraints(st, constraints, instance):
                continue
            score = structure_score(instance, ents, rels, use_bias)
            if score > best:
                best = score
    return float(best)


def oracle_entity_first(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool = True,
) -> DecodedStructure:
    """Entity-first pipeline with the DP replaced by the subset sweep.

    Steps 1 and 3 mirror entity_first_decode; step 2 picks the best
    disjoint subset by enumeration, so totals must match the DP exactly
    (structures too, whenever the optimum is unique).
    """
    ents = [NULL] * len(instance.spans)
    survivors = []
    for i, row in enumerate(instance.entity_logits):
        e = int(np.argmax(row))
        if e != NULL:
            survivors.append((i, e, float(row[e])))
    if constraints.non_overlap:
        pool = [
            (instance.spans[i][0], instance.spans[i][1], w) for i, _, w in survivors
        ]
        _, chosen = oracle_subset_max(pool)
        for k in chosen:
            i, e, _ = survivors[k]
            ents[i] = e
    else:
        for i, e, _ in survivors:
            ents[i] = e
    rels = [NULL] * len(instance.pairs)
    table = _bias_table(instance, use_bias)
    for p, (h, t) in enumerate(instance.pairs):
        eh, et = ents[h], ents[t]
        if eh == NULL or et == NULL:
            if not constraints.consistency:
                rels[p] = int(np.argmax(instance.relation_logits[p]))
            continue
        scores = [
            float(instance.relation_logits[p, r])
            + (float(table[eh, et, r]) if table is not None else 0.0)
            if (r == NULL or constraints.allows(eh, et, r))
            else NEG_SENTINEL
            for r in range(instance.relation_logits.shape[1])
        ]
        rels[p] = int(np.argmax(scores))
    ents_t, rels_t = tuple(ents), tuple(rels)
    return DecodedStructure(
        ents_t, rels_t, structure_score(instance, ents_t, rels_t, use_bias)
    )


def oracle_relation_first(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool = True,
) -> DecodedStructure:
    """Exhaustive two-stage maximum mirroring relation_first_decode.

    Stage 1 enumerates relation labelings in pair order (descending gain
    over null), discarding prefixes whose chosen relations are jointly
    infeasible (feasibility of a labeling is monotone: dropping relations
    never breaks it, so prefix pruning discards no feasible completion).
    Typing existence is tested by plain enumeration over the involved
    spans' typings, independent of the solver's search.  Stage 2
    enumerates entity labelings outright, in the solver's order, keeping
    the whitelist for every chosen relation between typed endpoints; the
    endpoints are forced typed only under the endpoint rule.  The
    solver's stage 1 searches typings instead, so among exactly tied
    stage-1 optima the two may return different ones: they agree on
    labels wherever the stage-1 optimum is unique, and on the stage-1
    objective always.
    """
    n_pairs = len(instance.pairs)
    n_ent = instance.entity_logits.shape[1]
    rel = instance.relation_logits
    spans = instance.spans

    def typings(involved: Sequence[int]):
        return itertools.product(range(1, n_ent), repeat=len(involved))

    def prefix_feasible(chosen: dict[int, int]) -> bool:
        cons = [
            (instance.pairs[p][0], instance.pairs[p][1], r) for p, r in chosen.items()
        ]
        involved = sorted({v for h, t, _ in cons for v in (h, t)})
        if constraints.non_overlap:
            for a, b in itertools.combinations(involved, 2):
                if spans_overlap(spans[a], spans[b]):
                    return False
        if not involved:
            return True
        if n_ent < 2:
            return False
        for typing in typings(involved):
            at = dict(zip(involved, typing))
            if all(constraints.allows(at[h], at[t], r) for h, t, r in cons):
                return True
        return False

    best_rels: list[int]
    if n_pairs == 0:
        best_rels = []
    elif not constraints.consistency:
        best_rels = [int(np.argmax(rel[p])) for p in range(n_pairs)]
    else:
        gains = rel.max(axis=1) - rel[:, NULL]
        pair_order = sorted(range(n_pairs), key=lambda p: (-gains[p], p))
        label_orders = [
            sorted(range(rel.shape[1]), key=lambda c: (-rel[p, c], c))
            for p in range(n_pairs)
        ]
        best_score = -np.inf
        found: list[int] | None = None
        rels = [NULL] * n_pairs
        chosen: dict[int, int] = {}

        def walk(k: int, partial: float) -> None:
            nonlocal best_score, found
            if k == n_pairs:
                if partial > best_score:
                    best_score = partial
                    found = rels.copy()
                return
            p = pair_order[k]
            for r in label_orders[p]:
                if r == NULL:
                    rels[p] = NULL
                    walk(k + 1, partial + float(rel[p, NULL]))
                    continue
                chosen[p] = r
                if prefix_feasible(chosen):
                    rels[p] = r
                    walk(k + 1, partial + float(rel[p, r]))
                    rels[p] = NULL
                del chosen[p]

        walk(0, 0.0)
        assert found is not None
        best_rels = found

    chosen = [
        (instance.pairs[p][0], instance.pairs[p][1], r)
        for p, r in enumerate(best_rels)
        if r != NULL
    ]
    forced_spans = (
        {v for h, t, _ in chosen for v in (h, t)} if constraints.consistency else set()
    )
    s = len(instance.spans)
    ent = instance.entity_logits
    spread = ent.max(axis=1) - ent.min(axis=1)
    span_order = sorted(range(s), key=lambda i: (i not in forced_spans, -spread[i], i))
    ent_orders = []
    for i in range(s):
        opts = range(1, n_ent) if i in forced_spans else range(n_ent)
        ent_orders.append(sorted(opts, key=lambda e: (-ent[i, e], e)))
    best_ent_score = -np.inf
    best_ents: tuple[int, ...] | None = None
    for combo in itertools.product(*(ent_orders[i] for i in span_order)):
        labels = [NULL] * s
        for k, sp in enumerate(span_order):
            labels[sp] = combo[k]
        if constraints.non_overlap:
            live = [i for i in range(s) if labels[i] != NULL]
            if any(
                spans_overlap(spans[a], spans[b])
                for a, b in itertools.combinations(live, 2)
            ):
                continue
        if any(
            labels[h] != NULL
            and labels[t] != NULL
            and not constraints.allows(labels[h], labels[t], r)
            for h, t, r in chosen
        ):
            continue
        score = sum(float(ent[i, labels[i]]) for i in range(s))
        if score > best_ent_score:
            best_ent_score = score
            best_ents = tuple(labels)
    assert best_ents is not None
    return DecodedStructure(
        best_ents,
        tuple(best_rels),
        structure_score(instance, best_ents, best_rels, use_bias),
    )
