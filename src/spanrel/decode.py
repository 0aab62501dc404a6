"""Decoding: turn per-candidate logits into a typed structure.

Four algorithms, all deterministic:

* ``unconstrained``: independent argmax per candidate, no structural rules.
* ``entity_first``: argmax entity types, resolve span overlaps with an
  exact maximum-weight interval-scheduling dynamic program, then label
  each relation by argmax over logits plus bias, with whitelist-forbidden
  cells masked to a large negative sentinel.
* ``joint``: exact maximizer of the full additive objective over all
  entity and relation labels subject to every active constraint, found by
  depth-first branch and bound.
* ``relation_first``: exact relation labeling first (restricted to
  labelings that admit at least one consistent entity typing), then exact
  entity labeling under the forcing imposed by those relations.

Tie rules are fixed throughout: argmax ties go to the lower type index,
the interval DP prefers excluding the later-sorted interval, and the
branch-and-bound searches explore labels in descending-logit order and
replace the incumbent only on strict improvement, which makes "first
optimum in search order" well defined.

The brute-force oracles at the bottom re-derive the same optima by
enumeration and exist only to cross-check the fast paths on tiny inputs.

Note on flag interplay: the endpoint rule (a non-null relation needs two
non-null endpoints) is the ``consistency`` flag.  The staged decoders
assume it is on, as it is in every bundled constraint file; switching it
off degenerates them to their unconstrained relation step.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .numerics import NEG_SENTINEL
from .representation import BiasTable, TypeInventory

NULL = 0  # index of the null label in every inventory

ALGORITHMS = ("unconstrained", "entity_first", "joint", "relation_first")


class BudgetExceededError(RuntimeError):
    """Raised when an exact search expands more nodes than allowed."""


@dataclass(frozen=True)
class ScoredInstance:
    """Everything a decoder needs for one sentence.

    spans are inclusive (start, end) token intervals inside [0, length);
    pairs index into spans as (head, tail).  Logit column 0 is the null
    label for both grids.  tokens are optional and carried only for
    reporting.
    """

    length: int
    spans: tuple[tuple[int, int], ...]
    entity_logits: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    relation_logits: np.ndarray
    inventory: TypeInventory
    bias: BiasTable | None = None
    tokens: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("sentence length must be positive")
        if self.tokens is not None and len(self.tokens) != self.length:
            raise ValueError("token count disagrees with length")
        for i, j in self.spans:
            if not (0 <= i <= j < self.length):
                raise ValueError(f"span ({i}, {j}) outside sentence of length {self.length}")
        n_ent = len(self.inventory.entity_types)
        n_rel = len(self.inventory.relation_types)
        if self.entity_logits.shape != (len(self.spans), n_ent):
            raise ValueError("entity logit grid does not match spans x types")
        if self.relation_logits.shape != (len(self.pairs), n_rel):
            raise ValueError("relation logit grid does not match pairs x types")
        for h, t in self.pairs:
            if not (0 <= h < len(self.spans) and 0 <= t < len(self.spans)):
                raise ValueError(f"pair ({h}, {t}) indexes outside spans")
            if h == t:
                raise ValueError("self-pairs are not decodable candidates")


@dataclass(frozen=True)
class ConstraintSet:
    """Structural rules for decoding.

    non_overlap: typed spans must be pairwise disjoint.  consistency: a
    non-null relation needs both endpoints typed.  allowed_pairs maps
    (head type name, tail type name) to the relation names permitted
    between them; pairs absent from the map are forbidden everything
    non-null when closed_world is set and unrestricted otherwise.  The
    null relation is always permitted.
    """

    inventory: TypeInventory
    non_overlap: bool = True
    consistency: bool = True
    closed_world: bool = False
    allowed_pairs: dict[tuple[str, str], frozenset[str]] = field(default_factory=dict)

    def allows(self, head_type: int, tail_type: int, relation: int) -> bool:
        """Whitelist membership on type indices (endpoint rule not included)."""
        if relation == NULL:
            return True
        key = (
            self.inventory.entity_types[head_type],
            self.inventory.entity_types[tail_type],
        )
        listed = self.allowed_pairs.get(key)
        if listed is None:
            return not self.closed_world
        return self.inventory.relation_types[relation] in listed


def unconstrained_constraints(inventory: TypeInventory) -> ConstraintSet:
    """A constraint set that permits everything."""
    return ConstraintSet(inventory, non_overlap=False, consistency=False)


def load_constraints(path: str) -> ConstraintSet:
    """Read a JSON constraint file (see docs/formats.md) into a ConstraintSet."""
    with open(path) as fh:
        doc = json.load(fh)
    return constraints_from_doc(doc, origin=path)


def constraints_from_doc(doc: dict, origin: str = "<document>") -> ConstraintSet:
    """Build a ConstraintSet from parsed constraint-file JSON.

    Type lists name real types only; nulls are prepended automatically.
    Unknown names and duplicate pair entries are rejected with their
    location inside the document.
    """
    inventory = TypeInventory.from_names(doc["entity_types"], doc["relation_types"])
    ent_names = set(inventory.entity_types)
    rel_names = set(inventory.relation_types)
    allowed: dict[tuple[str, str], frozenset[str]] = {}
    for pos, entry in enumerate(doc.get("allowed", [])):
        where = f"{origin}: allowed[{pos}]"
        for role in ("head", "tail"):
            if entry[role] not in ent_names:
                raise ValueError(f"{where}: unknown entity type {entry[role]!r}")
        for name in entry["relations"]:
            if name not in rel_names:
                raise ValueError(f"{where}: unknown relation type {name!r}")
        key = (entry["head"], entry["tail"])
        if key in allowed:
            raise ValueError(f"{where}: duplicate entry for pair {key}")
        allowed[key] = frozenset(entry["relations"])
    return ConstraintSet(
        inventory=inventory,
        non_overlap=bool(doc.get("non_overlap", True)),
        consistency=bool(doc.get("consistency", True)),
        closed_world=bool(doc.get("closed_world", False)),
        allowed_pairs=allowed,
    )


@dataclass(frozen=True)
class DecodedStructure:
    """One decoding outcome: a label per span and per pair, plus the
    full-assignment objective (null labels contribute their own logits)."""

    entity_labels: tuple[int, ...]
    relation_labels: tuple[int, ...]
    score: float

    def entity_items(
        self, instance: ScoredInstance
    ) -> list[tuple[int, int, int, float]]:
        """Non-null entities as (start, end, type, chosen-type logit)."""
        out = []
        for i, e in enumerate(self.entity_labels):
            if e != NULL:
                start, end = instance.spans[i]
                out.append((start, end, e, float(instance.entity_logits[i, e])))
        return out

    def relation_items(
        self, instance: ScoredInstance, use_bias: bool = True
    ) -> list[tuple[int, int, int, float]]:
        """Non-null relations as (head entity pos, tail entity pos, type,
        score), where positions index into entity_items and the score is
        the chosen logit plus any applied bias."""
        pos = {}
        k = 0
        for i, e in enumerate(self.entity_labels):
            if e != NULL:
                pos[i] = k
                k += 1
        table = (
            instance.bias.combined()
            if (use_bias and instance.bias is not None)
            else None
        )
        out = []
        for p, r in enumerate(self.relation_labels):
            if r == NULL:
                continue
            h, t = instance.pairs[p]
            score = float(instance.relation_logits[p, r])
            eh, et = self.entity_labels[h], self.entity_labels[t]
            if table is not None and eh != NULL and et != NULL:
                score += float(table[eh, et, r])
            out.append((pos.get(h, -1), pos.get(t, -1), r, score))
        return out


@dataclass(frozen=True)
class Violation:
    """A single broken rule, described for error reporting."""

    kind: str
    detail: str


def spans_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Closed-interval overlap: sharing even one token counts."""
    return max(a[0], b[0]) <= min(a[1], b[1])


def check_constraints(
    structure: DecodedStructure,
    constraints: ConstraintSet,
    instance: ScoredInstance,
) -> list[Violation]:
    """All violations of the structure against the rules; empty means feasible."""
    ents = structure.entity_labels
    rels = structure.relation_labels
    if len(ents) != len(instance.spans) or len(rels) != len(instance.pairs):
        raise ValueError("structure shape does not match instance")
    out: list[Violation] = []
    if constraints.non_overlap:
        live = [i for i, e in enumerate(ents) if e != NULL]
        for a, b in itertools.combinations(live, 2):
            if spans_overlap(instance.spans[a], instance.spans[b]):
                out.append(
                    Violation(
                        "non-overlap",
                        f"typed spans {instance.spans[a]} and {instance.spans[b]} "
                        "share tokens",
                    )
                )
    for p, r in enumerate(rels):
        if r == NULL:
            continue
        h, t = instance.pairs[p]
        rname = constraints.inventory.relation_types[r]
        if ents[h] == NULL or ents[t] == NULL:
            if constraints.consistency:
                out.append(
                    Violation(
                        "consistency",
                        f"relation {rname} on pair {p} has a non-entity endpoint",
                    )
                )
            continue
        if not constraints.allows(ents[h], ents[t], r):
            hname = constraints.inventory.entity_types[ents[h]]
            tname = constraints.inventory.entity_types[ents[t]]
            out.append(
                Violation(
                    "whitelist",
                    f"relation {rname} not allowed between {hname} and {tname}",
                )
            )
    return out


def structure_score(
    instance: ScoredInstance,
    entity_labels: Sequence[int],
    relation_labels: Sequence[int],
    use_bias: bool = True,
) -> float:
    """Additive objective over a full labeling.

    Every chosen logit counts, null labels included; each relation whose
    endpoints are both typed additionally picks up the learned bias for
    (head type, tail type, relation), again null included.
    """
    total = 0.0
    for i, e in enumerate(entity_labels):
        total += float(instance.entity_logits[i, e])
    table = (
        instance.bias.combined() if (use_bias and instance.bias is not None) else None
    )
    for p, r in enumerate(relation_labels):
        total += float(instance.relation_logits[p, r])
        if table is not None:
            h, t = instance.pairs[p]
            eh, et = entity_labels[h], entity_labels[t]
            if eh != NULL and et != NULL:
                total += float(table[eh, et, r])
    return total


# ---------------------------------------------------------------------------
# unconstrained


def unconstrained_decode(instance: ScoredInstance) -> DecodedStructure:
    """Row-wise argmax on raw logits; ties go to the lower type index."""
    ents = tuple(int(np.argmax(row)) for row in instance.entity_logits)
    rels = tuple(int(np.argmax(row)) for row in instance.relation_logits)
    return DecodedStructure(
        ents, rels, structure_score(instance, ents, rels, use_bias=False)
    )


# ---------------------------------------------------------------------------
# entity-first


def max_weight_nonoverlap(
    candidates: Sequence[tuple[int, int, float]]
) -> tuple[int, ...]:
    """Exact maximum-weight set of pairwise non-overlapping intervals.

    candidates are (start, end, weight) with inclusive ends.  Weighted
    interval scheduling in O(n log n): sort by end, binary-search each
    interval's rightmost compatible predecessor, one DP sweep.  The empty
    set is admissible, so negative-weight intervals are never forced in;
    on equal totals the DP prefers excluding the later-sorted interval.
    Returns indices into candidates, ascending.
    """
    n = len(candidates)
    if n == 0:
        return ()
    order = sorted(range(n), key=lambda i: (candidates[i][1], candidates[i][0], i))
    ends = [candidates[i][1] for i in order]
    # p[j]: how many sorted intervals end strictly before interval j starts
    p = [bisect_right(ends, candidates[order[j]][0] - 1) for j in range(n)]
    best = [0.0] * (n + 1)
    take = [False] * n
    for j in range(n):
        with_j = best[p[j]] + candidates[order[j]][2]
        if with_j > best[j]:
            best[j + 1] = with_j
            take[j] = True
        else:
            best[j + 1] = best[j]
    chosen: list[int] = []
    j = n
    while j > 0:
        if take[j - 1]:
            chosen.append(order[j - 1])
            j = p[j - 1]
        else:
            j -= 1
    return tuple(sorted(chosen))


def entity_first_decode(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool = True,
) -> DecodedStructure:
    """Entities by score, overlap resolution, then relation argmax.

    Step 1: per-span argmax over all entity types; spans whose winner is
    null drop out.  Step 2: when non-overlap is active, keep the
    maximum-weight disjoint subset of the survivors, weighted by each
    span's chosen-type logit (absolute, not relative to null; a survivor
    with a negative logit is dropped because the empty set competes).
    Step 3: each relation candidate between two surviving spans gets the
    argmax of logits plus bias, with whitelist-forbidden cells masked to
    the sentinel; candidates touching a dropped span stay null.
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
        for k in max_weight_nonoverlap(pool):
            i, e, _ = survivors[k]
            ents[i] = e
    else:
        for i, e, _ in survivors:
            ents[i] = e

    rels = [NULL] * len(instance.pairs)
    table = (
        instance.bias.combined() if (use_bias and instance.bias is not None) else None
    )
    for p, (h, t) in enumerate(instance.pairs):
        eh, et = ents[h], ents[t]
        if eh == NULL or et == NULL:
            if constraints.consistency:
                continue
            rels[p] = int(np.argmax(instance.relation_logits[p]))
            continue
        row = instance.relation_logits[p].copy()
        if table is not None:
            row = row + table[eh, et]
        for r in range(1, row.shape[0]):
            if not constraints.allows(eh, et, r):
                row[r] = NEG_SENTINEL
        rels[p] = int(np.argmax(row))
    ents_t, rels_t = tuple(ents), tuple(rels)
    return DecodedStructure(
        ents_t, rels_t, structure_score(instance, ents_t, rels_t, use_bias)
    )


# ---------------------------------------------------------------------------
# shared machinery for the exact searches


class _RelationResolver:
    """Per-instance tables for resolving one pair's best label exactly.

    Built once per decode; legal[eh][et] lists the relation labels the
    whitelist permits for that typing (null always first).  best() is the
    exact per-pair argmax used at search leaves, cap() an admissible
    upper bound used in branch-and-bound bounds.
    """

    def __init__(
        self,
        instance: ScoredInstance,
        constraints: ConstraintSet,
        use_bias: bool,
    ) -> None:
        self.consistency = constraints.consistency
        self.table = (
            instance.bias.combined()
            if (use_bias and instance.bias is not None)
            else None
        )
        n_ent = len(instance.inventory.entity_types)
        n_rel = len(instance.inventory.relation_types)
        self.n_rel = n_rel
        self.rows = [row.tolist() for row in instance.relation_logits]
        self.legal = [
            [
                tuple(
                    r
                    for r in range(n_rel)
                    if r == NULL or constraints.allows(eh, et, r)
                )
                for et in range(n_ent)
            ]
            for eh in range(n_ent)
        ]

    def best(self, p: int, eh: int, et: int) -> tuple[int, float]:
        """Exact best label and value for pair p given endpoint types.

        A typed pair maximizes logit plus bias over its legal labels; a
        pair with a null endpoint is forced null under the endpoint rule,
        otherwise it takes the raw-logit argmax because the whitelist
        only constrains typed endpoints.  Ties go to the lower label
        index.
        """
        row = self.rows[p]
        typed = eh != NULL and et != NULL
        if not typed:
            if self.consistency:
                return NULL, row[NULL]
            # untyped endpoints sit outside the whitelist's domain, so
            # every label is open and no bias applies
            r = int(np.argmax(row))
            return r, row[r]
        bias_row = self.table[eh, et] if self.table is not None else None
        best_r, best_v = NULL, -np.inf
        for r in self.legal[eh][et]:
            v = row[r] + (float(bias_row[r]) if bias_row is not None else 0.0)
            if v > best_v:
                best_r, best_v = r, v
        return best_r, best_v

    def cap(self, p: int) -> float:
        """Admissible bound on pair p's contribution over every typing."""
        row = self.rows[p]
        out = row[NULL]
        for r in range(self.n_rel):
            reachable = r == NULL or any(
                r in self.legal[eh][et]
                for eh in range(1, len(self.legal))
                for et in range(1, len(self.legal))
            )
            if not reachable and self.consistency:
                continue
            bonus = 0.0
            if self.table is not None:
                bonus = max(0.0, float(self.table[:, :, r].max()))
            out = max(out, row[r] + bonus)
        return out


def _label_orders(logits: np.ndarray) -> list[list[int]]:
    """Per-row label order: descending logit, ties to the lower index."""
    return [
        sorted(range(logits.shape[1]), key=lambda c: (-logits[i, c], c))
        for i in range(logits.shape[0])
    ]


def _conflict_lists(
    spans: Sequence[tuple[int, int]], span_order: Sequence[int]
) -> list[list[int]]:
    """For each search depth, the original indices of earlier-decided
    spans that overlap the span decided at that depth."""
    pos = {sp: k for k, sp in enumerate(span_order)}
    out: list[list[int]] = []
    for k, sp in enumerate(span_order):
        out.append(
            [o for o in range(len(spans)) if pos[o] < k and spans_overlap(spans[sp], spans[o])]
        )
    return out


# ---------------------------------------------------------------------------
# joint


def joint_decode(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool = True,
    budget: int | None = None,
) -> DecodedStructure:
    """Exact joint maximum via branch and bound over entity labelings.

    Relations decouple once entity types are fixed: constraints tie each
    relation only to its own endpoints, and the objective is additive, so
    each pair resolves by an independent exact argmax the moment both
    endpoints are decided.  The search therefore branches only on span
    labels, ordered by descending logit spread, trying labels in
    descending-logit order.  The admissible bound adds each undecided
    span's best logit and each unresolved pair's cap.  The incumbent is
    replaced only on strict improvement, so the result is the first
    optimum in search order.  budget caps expanded nodes; exceeding it
    raises BudgetExceededError.
    """
    s = len(instance.spans)
    if s == 0:
        return DecodedStructure((), (), 0.0)
    ent = instance.entity_logits
    resolver = _RelationResolver(instance, constraints, use_bias)

    spread = ent.max(axis=1) - ent.min(axis=1)
    span_order = sorted(range(s), key=lambda i: (-spread[i], i))
    pos_of = {sp: k for k, sp in enumerate(span_order)}
    label_order = _label_orders(ent)
    conflicts = _conflict_lists(instance.spans, span_order)

    suffix = [0.0] * (s + 1)
    for k in range(s - 1, -1, -1):
        suffix[k] = suffix[k + 1] + float(ent[span_order[k]].max())

    pairs = instance.pairs
    pairs_by_depth: list[list[int]] = [[] for _ in range(s)]
    for p, (h, t) in enumerate(pairs):
        pairs_by_depth[max(pos_of[h], pos_of[t])].append(p)
    suffix_cap = [0.0] * (s + 1)
    for k in range(s - 1, -1, -1):
        suffix_cap[k] = suffix_cap[k + 1] + sum(
            resolver.cap(p) for p in pairs_by_depth[k]
        )

    labels = [NULL] * s
    rels = [NULL] * len(pairs)
    best_score = -np.inf
    best: DecodedStructure | None = None
    nodes = 0
    check_overlap = constraints.non_overlap

    def dfs(k: int, partial: float) -> None:
        nonlocal best_score, best, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                f"joint search expanded more than {budget} nodes"
            )
        if k == s:
            if partial > best_score:
                best_score = partial
                best = DecodedStructure(tuple(labels), tuple(rels), partial)
            return
        sp = span_order[k]
        for e in label_order[sp]:
            if e != NULL and check_overlap:
                if any(labels[o] != NULL for o in conflicts[k]):
                    continue
            labels[sp] = e
            gained = float(ent[sp, e])
            for p in pairs_by_depth[k]:
                h, t = pairs[p]
                r, v = resolver.best(p, labels[h], labels[t])
                rels[p] = r
                gained += v
            new_partial = partial + gained
            if new_partial + suffix[k + 1] + suffix_cap[k + 1] > best_score:
                dfs(k + 1, new_partial)
        labels[sp] = NULL

    dfs(0, 0.0)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# relation-first


def _typing_exists(
    cons: Sequence[tuple[int, int, int]],
    n_ent: int,
    constraints: ConstraintSet,
) -> bool:
    """Whether one assignment of non-null types to the involved spans
    satisfies every (head, tail, relation) in cons simultaneously.

    Forward-checking search: domains pruned per relation arc, spans
    assigned smallest-domain first.
    """
    involved = sorted({v for h, t, _ in cons for v in (h, t)})
    if not involved:
        return True
    if n_ent < 2:
        return False
    domains: dict[int, set[int]] = {i: set(range(1, n_ent)) for i in involved}
    for h, t, r in cons:
        domains[h] = {
            eh for eh in domains[h]
            if any(constraints.allows(eh, et, r) for et in range(1, n_ent))
        }
        domains[t] = {
            et for et in domains[t]
            if any(constraints.allows(eh, et, r) for eh in range(1, n_ent))
        }
        if not domains[h] or not domains[t]:
            return False
    order = sorted(involved, key=lambda i: (len(domains[i]), i))

    def assign(idx: int, current: dict[int, int]) -> bool:
        if idx == len(order):
            return True
        span = order[idx]
        for e in sorted(domains[span]):
            current[span] = e
            ok = True
            for h, t, r in cons:
                if h in current and t in current:
                    if not constraints.allows(current[h], current[t], r):
                        ok = False
                        break
            if ok and assign(idx + 1, current):
                return True
            del current[span]
        return False

    return assign(0, {})


def relation_first_decode(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool = True,
    budget: int | None = None,
) -> DecodedStructure:
    """Relations exactly first, then entities exactly under the forcing.

    Stage 1 maximizes the sum of relation logits over all pairs (nulls
    included; no bias, since entity types are unknown here) subject to
    feasibility of the chosen non-null relations: one entity typing must
    satisfy every chosen relation's whitelist at once, and under
    non-overlap the involved endpoint spans must be pairwise disjoint.
    Stage 2 maximizes the sum of entity logits with the endpoints of
    chosen relations forced non-null and jointly whitelist-consistent,
    all other spans free.  The reported score is the full objective of
    the final structure, bias included when in use.
    """
    n_pairs = len(instance.pairs)
    n_ent = len(instance.inventory.entity_types)
    rel = instance.relation_logits
    require_typing = constraints.consistency

    best_rels: list[int]
    if n_pairs == 0:
        best_rels = []
    elif not require_typing:
        best_rels = [int(np.argmax(rel[p])) for p in range(n_pairs)]
    else:
        gains = rel.max(axis=1) - rel[:, NULL]
        pair_order = sorted(range(n_pairs), key=lambda p: (-gains[p], p))
        label_orders = _label_orders(rel)
        suffix_ub = [0.0] * (n_pairs + 1)
        for k in range(n_pairs - 1, -1, -1):
            suffix_ub[k] = suffix_ub[k + 1] + float(rel[pair_order[k]].max())

        best_rel_score = -np.inf
        found: list[int] | None = None
        chosen: dict[int, int] = {}
        rels = [NULL] * n_pairs
        nodes = 0

        def endpoints_disjoint(p: int) -> bool:
            h, t = instance.pairs[p]
            if spans_overlap(instance.spans[h], instance.spans[t]):
                return False
            involved = {v for q in chosen for v in instance.pairs[q]}
            for v in (h, t):
                for o in involved:
                    if o != v and spans_overlap(instance.spans[v], instance.spans[o]):
                        return False
            return True

        def dfs1(k: int, partial: float) -> None:
            nonlocal best_rel_score, found, nodes
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(
                    f"relation search expanded more than {budget} nodes"
                )
            if k == n_pairs:
                if partial > best_rel_score:
                    best_rel_score = partial
                    found = rels.copy()
                return
            if partial + suffix_ub[k] <= best_rel_score:
                return
            p = pair_order[k]
            for r in label_orders[p]:
                if r == NULL:
                    rels[p] = NULL
                    dfs1(k + 1, partial + float(rel[p, NULL]))
                    continue
                if constraints.non_overlap and not endpoints_disjoint(p):
                    continue
                chosen[p] = r
                cons = [
                    (instance.pairs[q][0], instance.pairs[q][1], label)
                    for q, label in chosen.items()
                ]
                if _typing_exists(cons, n_ent, constraints):
                    rels[p] = r
                    dfs1(k + 1, partial + float(rel[p, r]))
                    rels[p] = NULL
                del chosen[p]

        dfs1(0, 0.0)
        assert found is not None
        best_rels = found

    ents = _entities_given_relations(instance, constraints, best_rels, budget)
    ents_t, rels_t = tuple(ents), tuple(best_rels)
    return DecodedStructure(
        ents_t, rels_t, structure_score(instance, ents_t, rels_t, use_bias)
    )


def _entities_given_relations(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    rels: Sequence[int],
    budget: int | None = None,
) -> list[int]:
    """Exact best entity labeling consistent with fixed relation labels.

    Maximizes the sum of entity logits alone.  Endpoints of non-null
    relations must take non-null types jointly satisfying the whitelist
    (skipped when the endpoint rule is off); non-overlap applies among
    all typed spans.  Branch and bound, forced spans decided first.
    """
    s = len(instance.spans)
    ent = instance.entity_logits
    n_ent = ent.shape[1]
    forced_cons = (
        [
            (instance.pairs[p][0], instance.pairs[p][1], r)
            for p, r in enumerate(rels)
            if r != NULL
        ]
        if constraints.consistency
        else []
    )
    forced_set = {v for h, t, _ in forced_cons for v in (h, t)}

    spread = ent.max(axis=1) - ent.min(axis=1)
    span_order = sorted(range(s), key=lambda i: (i not in forced_set, -spread[i], i))
    pos_of = {sp: k for k, sp in enumerate(span_order)}
    cons_by_depth: list[list[tuple[int, int, int]]] = [[] for _ in range(s)]
    for h, t, r in forced_cons:
        cons_by_depth[max(pos_of[h], pos_of[t])].append((h, t, r))
    conflicts = _conflict_lists(instance.spans, span_order)

    label_orders = []
    for i in range(s):
        opts = range(1, n_ent) if i in forced_set else range(n_ent)
        label_orders.append(sorted(opts, key=lambda e: (-ent[i, e], e)))
    if any(not lo for lo in label_orders):
        raise RuntimeError("forced span has no non-null type available")
    suffix = [0.0] * (s + 1)
    for k in range(s - 1, -1, -1):
        sp = span_order[k]
        suffix[k] = suffix[k + 1] + max(float(ent[sp, e]) for e in label_orders[sp])

    labels = [NULL] * s
    best_score = -np.inf
    best_labels: list[int] | None = None
    nodes = 0

    def dfs(k: int, partial: float) -> None:
        nonlocal best_score, best_labels, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                f"entity search expanded more than {budget} nodes"
            )
        if k == s:
            if partial > best_score:
                best_score = partial
                best_labels = labels.copy()
            return
        sp = span_order[k]
        for e in label_orders[sp]:
            if e != NULL and constraints.non_overlap:
                if any(labels[o] != NULL for o in conflicts[k]):
                    continue
            labels[sp] = e
            ok = True
            for h, t, r in cons_by_depth[k]:
                if not constraints.allows(labels[h], labels[t], r):
                    ok = False
                    break
            if ok and partial + float(ent[sp, e]) + suffix[k + 1] > best_score:
                dfs(k + 1, partial + float(ent[sp, e]))
        labels[sp] = NULL

    dfs(0, 0.0)
    if best_labels is None:
        raise RuntimeError("fixed relations admit no entity labeling")
    return best_labels


# ---------------------------------------------------------------------------
# brute-force oracles (tiny inputs only)


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
    joint_decode (per-pair relations resolved by the same exact argmax)
    with strict improvement, so tie outcomes match the solver leaf for
    leaf.  Cost |entity types| ** |spans|.
    """
    s = len(instance.spans)
    ent = instance.entity_logits
    resolver = _RelationResolver(instance, constraints, use_bias)
    spread = ent.max(axis=1) - ent.min(axis=1)
    span_order = sorted(range(s), key=lambda i: (-spread[i], i))
    label_order = _label_orders(ent)
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
            r, v = resolver.best(p, labels[h], labels[t])
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
    table = (
        instance.bias.combined() if (use_bias and instance.bias is not None) else None
    )
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

    Stage 1 enumerates relation labelings in the solver's branch order,
    discarding prefixes whose chosen relations are jointly infeasible
    (feasibility of a labeling is monotone: dropping relations never
    breaks it, so prefix pruning discards no feasible completion).
    Typing existence is tested by plain enumeration over the involved
    spans' typings, independent of the solver's search.  Stage 2
    enumerates entity labelings outright.
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
        label_orders = _label_orders(rel)
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

    forced = (
        [
            (instance.pairs[p][0], instance.pairs[p][1], r)
            for p, r in enumerate(best_rels)
            if r != NULL
        ]
        if constraints.consistency
        else []
    )
    forced_spans = {v for h, t, _ in forced for v in (h, t)}
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
        if any(not constraints.allows(labels[h], labels[t], r) for h, t, r in forced):
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


def brute_force_oracle(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    mode: str,
    use_bias: bool = True,
    cap: int = 6,
) -> DecodedStructure:
    """Dispatch to the enumeration oracle for one algorithm.

    Refuses instances with more than cap span or relation candidates;
    these enumerations are exponential and exist only for verification.
    """
    if mode not in ("joint", "entity_first", "relation_first"):
        raise ValueError(f"no oracle for mode {mode!r}")
    if len(instance.spans) > cap or len(instance.pairs) > cap:
        raise ValueError(
            f"oracle capped at {cap} candidates; got "
            f"{len(instance.spans)} spans, {len(instance.pairs)} pairs"
        )
    if mode == "joint":
        return oracle_joint(instance, constraints, use_bias)
    if mode == "entity_first":
        return oracle_entity_first(instance, constraints, use_bias)
    return oracle_relation_first(instance, constraints, use_bias)


def decode(
    instance: ScoredInstance,
    algorithm: str,
    constraints: ConstraintSet | None = None,
    use_bias: bool = True,
    budget: int | None = None,
) -> DecodedStructure:
    """Run one decoding algorithm; constraints default to permit-all.

    Raises ValueError, naming the algorithm, when the structure's objective
    is not finite: finite logits and bias entries can still sum past the
    float64 range.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    if constraints is None:
        constraints = unconstrained_constraints(instance.inventory)
    if algorithm == "unconstrained":
        structure = unconstrained_decode(instance)
    elif algorithm == "entity_first":
        structure = entity_first_decode(instance, constraints, use_bias)
    elif algorithm == "joint":
        structure = joint_decode(instance, constraints, use_bias, budget)
    else:
        structure = relation_first_decode(instance, constraints, use_bias, budget)
    if not math.isfinite(structure.score):
        raise ValueError(
            f"{algorithm} objective is {structure.score!r}: the logits and bias "
            "entries sum past the float64 range"
        )
    return structure


__all__ = [
    "ALGORITHMS",
    "NULL",
    "BudgetExceededError",
    "ConstraintSet",
    "DecodedStructure",
    "ScoredInstance",
    "Violation",
    "brute_force_oracle",
    "check_constraints",
    "constraints_from_doc",
    "decode",
    "entity_first_decode",
    "joint_decode",
    "load_constraints",
    "max_weight_nonoverlap",
    "oracle_entity_first",
    "oracle_joint",
    "oracle_joint_full",
    "oracle_relation_first",
    "oracle_subset_max",
    "relation_first_decode",
    "spans_overlap",
    "structure_score",
    "unconstrained_constraints",
    "unconstrained_decode",
]
