"""Decoding: turn per-candidate logits into a typed structure.

Four algorithms, all deterministic:

* ``unconstrained``: independent argmax per candidate, no structural rules.
* ``entity_first``: argmax entity types, resolve span overlaps with an
  exact maximum-weight interval-scheduling dynamic program, then label
  each relation by argmax over logits plus bias, with whitelist-forbidden
  cells masked to a large negative sentinel.
* ``joint``: exact maximizer of the full additive objective over all
  entity and relation labels subject to every active constraint.
* ``relation_first``: exact relation labeling first (restricted to
  labelings that admit at least one consistent entity typing), then exact
  entity labeling under the forcing imposed by those relations.

Both exact decoders are runs of one typing search, ``_typing_search``:
depth-first branch and bound over span labels, for an entity score grid
and a table of pair values under every endpoint typing, with a bound that
follows the search.  Joint runs it once; each relation-first stage is one
run with its own scores and pair values.  The search keeps an explicit
stack of generators, so no search is limited by Python's recursion depth.
Weighted interval scheduling is one layout and one DP
(``_interval_layout``, ``_interval_dp``), shared by entity-first's overlap
resolution and the search's bound.

Tie rules are fixed throughout: argmax ties go to the lower type index,
the interval DP prefers excluding the later-sorted interval, and every
search tries labels in a fixed order per span (descending logit, except
relation-first's stage 1, which tries typed labels before null) and
replaces the incumbent only on strict improvement, which makes "first
optimum in search order" well defined.  A bound only decides which
subtrees are skipped, never the order of the rest, so a tighter bound
returns the same structure with fewer nodes.

The whitelist is compiled once per constraint set into a boolean
(E, E, R) array, ``ConstraintSet.allowed``, and the bias into one
(E, E, R) array, ``BiasTable.combined()``; every decoder reads both.
The endpoint rule (a non-null relation needs two non-null endpoints) is
the ``consistency`` flag; the whitelist binds every relation between
typed endpoints whether or not it is on.

Brute-force oracles that re-derive the same optima by enumeration live
with the tests (``tests/oracles.py``), not in the package.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def allowed(self) -> np.ndarray:
        """The whitelist compiled once into a boolean (E, E, R) array.

        allowed[h, t, r] is allows(h, t, r) for every index triple, null
        types included; the null-relation column is all True.
        """
        ents = self.inventory.entity_types
        rels = self.inventory.relation_types
        out = np.full((len(ents), len(ents), len(rels)), not self.closed_world)
        for eh, head in enumerate(ents):
            for et, tail in enumerate(ents):
                listed = self.allowed_pairs.get((head, tail))
                if listed is not None:
                    out[eh, et] = [name in listed for name in rels]
        out[:, :, NULL] = True
        out.flags.writeable = False
        return out

    def allows(self, head_type: int, tail_type: int, relation: int) -> bool:
        """Whitelist membership on type indices (endpoint rule not included)."""
        if relation == NULL:
            return True
        return bool(self.allowed[head_type, tail_type, relation])


def unconstrained_constraints(inventory: TypeInventory) -> ConstraintSet:
    """A constraint set that permits everything."""
    return ConstraintSet(inventory, non_overlap=False, consistency=False)


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
        table = _applied_bias(instance, use_bias)
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


def _applied_bias(instance: ScoredInstance, use_bias: bool) -> np.ndarray | None:
    """The combined (E, E, R) bias table when the objective uses one."""
    return instance.bias.combined() if use_bias and instance.bias is not None else None


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
    table = _applied_bias(instance, use_bias)
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
    """Row-wise argmax on raw logits; ties go to the lower type index.

    Entity-first with no rule and no bias: nothing resolves overlaps,
    nothing is masked, so every row keeps its own argmax.
    """
    constraints = unconstrained_constraints(instance.inventory)
    return entity_first_decode(instance, constraints, use_bias=False)


# ---------------------------------------------------------------------------
# entity-first


def _interval_layout(
    spans: Sequence[tuple[int, ...]],
) -> tuple[list[int], list[int]]:
    """Weighted-interval-scheduling layout of inclusive (start, end, ...)
    intervals: their indices sorted by (end, start, index), and for each
    sorted position how many sorted intervals end strictly before it
    starts."""
    order = sorted(range(len(spans)), key=lambda j: (spans[j][1], spans[j][0], j))
    ends = [spans[j][1] for j in order]
    return order, [bisect_right(ends, spans[j][0] - 1) for j in order]


def _interval_dp(weights: Sequence[float], pred: Sequence[int]) -> list[float]:
    """dp[i]: the best total of pairwise disjoint intervals among the first
    i of a layout, weights in layout order; the empty set counts, and on
    equal totals the later interval is left out."""
    dp = [0.0]
    best = 0.0
    for w, p in zip(weights, pred):
        take = dp[p] + w
        if take > best:
            best = take
        dp.append(best)
    return dp


def max_weight_nonoverlap(
    candidates: Sequence[tuple[int, int, float]]
) -> tuple[int, ...]:
    """Exact maximum-weight set of pairwise non-overlapping intervals.

    candidates are (start, end, weight) with inclusive ends.  Weighted
    interval scheduling in O(n log n): sort by end, binary-search each
    interval's rightmost compatible predecessor, one DP sweep, then
    backtrack.  The empty set is admissible, so negative-weight intervals
    are never forced in; on equal totals the DP prefers excluding the
    later-sorted interval.  Returns indices into candidates, ascending.
    """
    order, pred = _interval_layout(candidates)
    weights = [candidates[j][2] for j in order]
    dp = _interval_dp(weights, pred)
    chosen: list[int] = []
    i = len(order)
    while i > 0:
        if dp[pred[i - 1]] + weights[i - 1] > dp[i - 1]:
            chosen.append(order[i - 1])
            i = pred[i - 1]
        else:
            i -= 1
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
    ent = instance.entity_logits
    winners = ent.argmax(axis=1)
    survivors = [
        (i, e, float(ent[i, e])) for i, e in enumerate(winners.tolist()) if e != NULL
    ]
    ents = np.zeros(len(instance.spans), dtype=np.intp)
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

    rel = instance.relation_logits
    pairs = np.array(instance.pairs, dtype=np.intp).reshape(-1, 2)
    eh, et = ents[pairs[:, 0]], ents[pairs[:, 1]]
    typed = (eh != NULL) & (et != NULL)
    rels = np.zeros(len(pairs), dtype=np.intp)
    if not constraints.consistency:
        rels[~typed] = rel[~typed].argmax(axis=1)
    eh, et = eh[typed], et[typed]
    rows = rel[typed]
    table = _applied_bias(instance, use_bias)
    if table is not None:
        rows = rows + table[eh, et]
    rows = np.where(constraints.allowed[eh, et], rows, NEG_SENTINEL)
    rels[typed] = rows.argmax(axis=1)
    ents_t, rels_t = tuple(ents.tolist()), tuple(rels.tolist())
    return DecodedStructure(
        ents_t, rels_t, structure_score(instance, ents_t, rels_t, use_bias)
    )


# ---------------------------------------------------------------------------
# shared machinery for the exact searches


def _pair_tables(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's exact best label and value under every endpoint typing.

    Returns (labels, values), each shaped (pairs, E, E) and indexed
    [p, eh, et].  A typed pair maximizes logit plus bias over the labels
    the whitelist permits, ties to the lower label index.  A pair with a
    null endpoint is forced null under the endpoint rule; otherwise it
    takes its raw-logit argmax, because the whitelist and the bias apply
    only between typed endpoints.
    """
    rel = instance.relation_logits
    n_pairs = rel.shape[0]
    table = _applied_bias(instance, use_bias)
    scored = np.where(
        constraints.allowed,
        rel[:, None, None, :] + (table if table is not None else 0.0),
        -np.inf,
    )
    labels = scored.argmax(axis=3)
    values = np.take_along_axis(scored, labels[..., None], axis=3)[..., 0]
    untyped = (
        np.zeros(n_pairs, dtype=np.intp) if constraints.consistency else rel.argmax(axis=1)
    )
    for grid, fill in ((labels, untyped), (values, rel[np.arange(n_pairs), untyped])):
        grid[:, NULL, :] = fill[:, None]
        grid[:, :, NULL] = fill[:, None]
    return labels, values


def _label_orders(logits: np.ndarray) -> list[list[int]]:
    """Per-row label order: descending logit, ties to the lower index."""
    return [
        sorted(range(logits.shape[1]), key=lambda c: (-logits[i, c], c))
        for i in range(logits.shape[0])
    ]


# Sums past the float64 range stay silent here: decode() rejects an
# objective that is not finite, and an overflowed bound only prunes less.
@np.errstate(over="ignore", invalid="ignore")
def _typing_search(
    spans: Sequence[tuple[int, int]],
    pairs: Sequence[tuple[int, int]],
    scores: np.ndarray,
    values: np.ndarray,
    span_order: Sequence[int],
    label_order: Sequence[Sequence[int]],
    non_overlap: bool,
    budget: int | None,
    name: str,
) -> tuple[list[int], float]:
    """The best entity typing by branch and bound, and its objective.

    A typing e scores sum_i scores[i, e_i] + sum_p values[p, e_h, e_t]
    over pairs p = (h, t); under non_overlap its typed spans must be
    pairwise disjoint.  Spans are decided in span_order, each trying the
    labels of label_order[span] in turn (a label left out is never
    taken), and a pair counts once both endpoints are decided.  A value
    of -inf forbids that endpoint typing.

    The bound is admissible and follows the search.  Each undecided span
    j has a row T[j, e]: its score for type e plus, for every pair whose
    later endpoint is j, the pair's value given the other endpoint's
    decided type, or its maximum over that endpoint's types while it is
    undecided.  Without non-overlap the bound is the sum of the row
    maxima.  Under non-overlap it is the sum of T[j, null] plus the
    exact maximum-weight set of pairwise disjoint spans weighted by their
    positive gains max_{e>0} T[j, e] - T[j, null] (weighted interval
    scheduling), leaving out spans that overlap a typed decided span.  A
    child is expanded only while its bound exceeds the incumbent, and the
    incumbent is replaced only on strict improvement.  A tighter bound
    only skips subtrees that cannot beat the incumbent, so the result is
    the first optimum in search order.  budget caps expanded nodes;
    exceeding it raises BudgetExceededError naming the search.
    """
    s = len(span_order)
    n_ent = scores.shape[1]
    value_of = values.tolist()
    pos_of = {sp: k for k, sp in enumerate(span_order)}
    by_depth = [spans[sp] for sp in span_order]

    # Bound rows by depth.  A pair counts at its later endpoint's depth,
    # maximized over the earlier endpoint's types; deciding that endpoint
    # adds, per label, the gap to the pair's value given that label.
    rows = scores[list(span_order)]  # a copy
    pairs_by_depth: list[list[int]] = [[] for _ in range(s)]
    shifts: list[dict[int, np.ndarray]] = [{} for _ in range(s)]
    for p, (h, t) in enumerate(pairs):
        dh, dt = pos_of[h], pos_of[t]
        later, earlier = max(dh, dt), min(dh, dt)
        pairs_by_depth[later].append(p)
        given = values[p] if dh < dt else values[p].T  # [earlier, later]
        cap = given.max(axis=0)
        rows[later] += cap
        shift = shifts[earlier].setdefault(later, np.zeros((n_ent, n_ent)))
        # a column forbidden whatever the earlier type stays -inf in its row
        shift += np.subtract(given, cap, out=np.zeros_like(given), where=cap > -np.inf)
    updates = [
        (np.array(list(by_row), dtype=np.intp), np.stack(list(by_row.values()), axis=1))
        if by_row else None
        for by_row in shifts
    ]  # per depth: (later depths, shift per label and later depth)
    overlapping_later = [
        np.array(
            [j for j in range(k + 1, s) if spans_overlap(by_depth[k], by_depth[j])],
            dtype=np.intp,
        )
        for k in range(s)
    ]
    # weighted-interval-scheduling layout of every suffix of the depths
    layouts = []
    for k in range(s if non_overlap else 0):
        order, pred = _interval_layout(by_depth[k:])
        layouts.append((np.array(order, dtype=np.intp), pred))
    # typed decided spans overlapping each depth; stays 0 without non-overlap
    blocked = np.zeros(s, dtype=np.intp)
    labels = [NULL] * s
    best = -math.inf  # the incumbent's objective

    def promising(k: int, partial: float) -> bool:
        """Whether depth k onward may still beat the incumbent strictly.

        The bound and the leaves add the same terms in different orders,
        so on an exact tie rounding alone decides whether a later tying
        subtree is skipped; either way the result is within rounding of
        the optimum.  The tests read "not bound <= incumbent" so that a
        NaN bound from overflowed sums never prunes.
        """
        if k == s:
            return not partial <= best
        rest = rows[k:]
        if not non_overlap or n_ent == 1:
            return not partial + float(rest.max(axis=1).sum()) <= best
        base = partial + float(rest[:, NULL].sum())
        gains = rest[:, 1:].max(axis=1) - rest[:, NULL]
        gains[blocked[k:] > 0] = 0.0
        np.maximum(gains, 0.0, out=gains)
        total = float(gains.sum())
        if base + total <= best:
            return False
        if total != total:  # an overflowed row; nothing to bound with
            return True
        order, pred = layouts[k]
        return not base + _interval_dp(gains[order].tolist(), pred)[-1] <= best

    def children(k: int, partial: float) -> Iterator[float]:
        """Decide depth k: per label, apply it, yield the child's partial
        objective when the child is worth entering, and undo it."""
        sp = span_order[k]
        update = updates[k]
        typed_ok = not blocked[k]
        for e in label_order[sp]:
            if e != NULL and not typed_ok:
                continue
            labels[sp] = e
            gained = float(scores[sp, e])
            for p in pairs_by_depth[k]:
                h, t = pairs[p]
                gained += value_of[p][labels[h]][labels[t]]
            new_partial = partial + gained
            if update is not None:
                later, shift = update
                saved = rows[later]
                rows[later] += shift[e]
            blocks = non_overlap and e != NULL
            if blocks:
                blocked[overlapping_later[k]] += 1
            if promising(k + 1, new_partial):
                yield new_partial
            if blocks:
                blocked[overlapping_later[k]] -= 1
            if update is not None:
                rows[later] = saved
        labels[sp] = NULL

    # The walk: one generator per decided depth.  A node counts on entry,
    # the root included, and a leaf snapshots the labels.
    found: list[int] = []
    stack: list[Iterator[float]] = []
    partial = 0.0
    nodes = 0
    while True:
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"{name} search expanded more than {budget} nodes")
        if len(stack) == s:
            if partial > best:
                best, found = partial, labels.copy()
        else:
            stack.append(children(len(stack), partial))
        while stack:
            child = next(stack[-1], None)
            if child is not None:
                partial = child
                break
            stack.pop()
        else:
            return found, best


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
    each pair resolves by an independent exact argmax, read from a table
    of every pair under every endpoint typing, the moment both endpoints
    are decided.  The typing search therefore branches only on span
    labels, ordered by descending logit spread, trying labels in
    descending-logit order.  budget caps expanded nodes; exceeding it
    raises BudgetExceededError.
    """
    if not instance.spans:
        return DecodedStructure((), (), 0.0)
    ent = instance.entity_logits
    label_table, value_table = _pair_tables(instance, constraints, use_bias)
    spread = ent.max(axis=1) - ent.min(axis=1)
    span_order = sorted(range(len(ent)), key=lambda i: (-spread[i], i))
    ents, best = _typing_search(
        instance.spans, instance.pairs, ent, value_table, span_order,
        _label_orders(ent), constraints.non_overlap, budget, "joint",
    )
    rels = tuple(int(label_table[p, ents[h], ents[t]]) for p, (h, t) in enumerate(instance.pairs))
    return DecodedStructure(tuple(ents), rels, best)


# ---------------------------------------------------------------------------
# relation-first


def _stage1_orders(
    values: np.ndarray, pairs: Sequence[tuple[int, int]], s: int
) -> tuple[list[int], list[list[int]]]:
    """Span and label orders of relation-first's stage 1.

    Spans go by pair coupling, the summed value range of the pairs that
    touch them, ties to the lower index.  Each span tries typed labels,
    then null, leaving out a typed label when null or an earlier kept
    label is worth at least as much in every pair touching the span,
    whatever the other endpoint's type: with entity scores 0 such a label
    can only tie, and a typed span also blocks overlapping ones.
    """
    n_ent = values.shape[1]
    coupling = [0.0] * s
    sides: list[list[np.ndarray]] = [[np.zeros((n_ent, 0))] for _ in range(s)]
    for p, (h, t) in enumerate(pairs):
        for i, worth in ((h, values[p]), (t, values[p].T)):
            coupling[i] += worth.max() - worth.min()
            sides[i].append(worth)
    label_order = []
    for cols in sides:
        worth = np.concatenate(cols, axis=1)  # [label, pair and other type]
        kept = [NULL]
        for e in range(1, n_ent):
            if not any((worth[k] >= worth[e]).all() for k in kept):
                kept.append(e)
        label_order.append([*kept[1:], NULL])
    return sorted(range(s), key=lambda i: (-coupling[i], i)), label_order


def relation_first_decode(
    instance: ScoredInstance,
    constraints: ConstraintSet,
    use_bias: bool = True,
    budget: int | None = None,
) -> DecodedStructure:
    """Relations exactly first, then entities exactly under the forcing.

    Both stages are runs of the typing search.  Stage 1 maximizes the sum
    of relation logits over all pairs (nulls included; no bias, since
    entity types are unknown here) over the labelings some typing admits:
    one typing satisfies every chosen relation's whitelist at once, and
    under non-overlap the involved endpoint spans are pairwise disjoint.
    So every entity score is 0 and each pair is worth its best
    whitelisted logit under its endpoint types, in the orders of
    _stage1_orders; the labels are read off at the typing found, and
    among exactly tied optima the first one the search finds wins.

    Stage 2 maximizes the sum of entity logits with the endpoints of
    chosen relations forced non-null and jointly whitelist-consistent,
    all other spans free: the typing search over the chosen pairs alone,
    each worth 0 at a whitelisted typing and -inf at any other typed one.
    Forced spans come first and never try null, then the rest by
    descending logit spread.  Without the endpoint rule a pair with a null
    endpoint is worth its raw-logit maximum, so null dominates every typed
    label in stage 1, which then returns each pair's raw argmax; stage 2
    forces no span but still keeps the whitelist between typed endpoints.
    Each stage gets the full budget.  The reported score is the full
    objective of the final structure, bias included when in use.
    """
    ent = instance.entity_logits
    s, n_ent = ent.shape
    pairs = instance.pairs
    label_table, value_table = _pair_tables(instance, constraints, use_bias=False)
    typing, _ = _typing_search(
        instance.spans, pairs, np.zeros((s, n_ent)), value_table,
        *_stage1_orders(value_table, pairs, s), constraints.non_overlap, budget, "relation",
    )
    rels = tuple(int(label_table[p, typing[h], typing[t]]) for p, (h, t) in enumerate(pairs))
    chosen = [p for p, r in enumerate(rels) if r != NULL]
    forced = {v for p in chosen for v in pairs[p]} if constraints.consistency else set()
    given = np.zeros((len(chosen), n_ent, n_ent))
    allowed = constraints.allowed[1:, 1:, [rels[p] for p in chosen]]
    given[:, 1:, 1:] = np.where(allowed.transpose(2, 0, 1), 0.0, -np.inf)
    spread = ent.max(axis=1) - ent.min(axis=1)
    label_order = [
        [e for e in order if e != NULL or i not in forced]
        for i, order in enumerate(_label_orders(ent))
    ]
    ents, _ = _typing_search(
        instance.spans, [pairs[p] for p in chosen], ent, given,
        sorted(range(s), key=lambda i: (i not in forced, -spread[i], i)),
        label_order, constraints.non_overlap, budget, "entity",
    )
    return DecodedStructure(
        tuple(ents), rels, structure_score(instance, ents, rels, use_bias)
    )


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
    "check_constraints",
    "constraints_from_doc",
    "decode",
    "entity_first_decode",
    "joint_decode",
    "max_weight_nonoverlap",
    "relation_first_decode",
    "spans_overlap",
    "structure_score",
    "unconstrained_constraints",
    "unconstrained_decode",
]
