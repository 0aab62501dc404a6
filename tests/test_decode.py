"""Decoder checks: constraint semantics, interval DP, exact solvers vs oracles."""

from __future__ import annotations

import dataclasses
import itertools
import sys

import numpy as np
import pytest

from spanrel import (
    BudgetExceededError,
    ConstraintSet,
    DecodedStructure,
    ScoredInstance,
    TypeInventory,
    Violation,
    check_constraints,
    decode,
    entity_first_decode,
    forward,
    init_params,
    joint_decode,
    load_constraint_set,
    make_rng,
    max_weight_nonoverlap,
    relation_first_decode,
    structure_score,
    synthetic_instances,
    unconstrained_constraints,
    unconstrained_decode,
)
from spanrel.decode import ALGORITHMS, spans_overlap

from oracles import (
    oracle_entity_first,
    oracle_joint,
    oracle_joint_full,
    oracle_relation_first,
    oracle_subset_max,
)

from conftest import (
    make_inventory,
    random_bias,
    random_constraints,
    random_instance,
    random_intervals,
)


def permissive(inventory):
    """Task rules only, no whitelist."""
    return ConstraintSet(inventory)


# ---------------------------------------------------------------------------
# containers and rule primitives


def test_scored_instance_validation():
    inv = make_inventory(2, 2)
    ok = ScoredInstance(
        3, ((0, 1),), np.zeros((1, 3)), (), np.zeros((0, 3)), inv
    )
    assert ok.length == 3
    with pytest.raises(ValueError):
        ScoredInstance(3, ((0, 3),), np.zeros((1, 3)), (), np.zeros((0, 3)), inv)
    with pytest.raises(ValueError):
        ScoredInstance(3, ((0, 1),), np.zeros((2, 3)), (), np.zeros((0, 3)), inv)
    with pytest.raises(ValueError):
        ScoredInstance(
            3, ((0, 1), (2, 2)), np.zeros((2, 3)), ((0, 0),), np.zeros((1, 3)), inv
        )
    with pytest.raises(ValueError):
        ScoredInstance(
            3, ((0, 1),), np.zeros((1, 3)), ((0, 1),), np.zeros((1, 3)), inv
        )


def test_spans_overlap():
    assert spans_overlap((0, 2), (2, 4))  # shared token counts
    assert spans_overlap((1, 3), (2, 2))
    assert not spans_overlap((0, 1), (2, 3))
    assert spans_overlap((0, 5), (2, 3))  # containment


def test_allows_whitelist_semantics():
    inv = TypeInventory.from_names(["A", "B"], ["r", "s"])
    cons = ConstraintSet(
        inv,
        closed_world=True,
        allowed_pairs={("A", "B"): frozenset({"r"})},
    )
    a, b = inv.entity_index("A"), inv.entity_index("B")
    r, s = inv.relation_index("r"), inv.relation_index("s")
    assert cons.allows(a, b, r)
    assert not cons.allows(a, b, s)
    assert not cons.allows(b, a, r)  # direction matters
    assert cons.allows(b, a, 0)  # null relation always allowed
    open_world = ConstraintSet(
        inv, closed_world=False, allowed_pairs={("A", "B"): frozenset({"r"})}
    )
    # unlisted pair: unrestricted without the closed world flag
    assert open_world.allows(b, a, s)
    # listed pair still restricted to its list
    assert not open_world.allows(a, b, s)


def test_check_constraints_kinds():
    inv = TypeInventory.from_names(["A", "B"], ["r"])
    inst = ScoredInstance(
        4,
        ((0, 1), (1, 2), (3, 3)),
        np.zeros((3, 3)),
        ((0, 2), (2, 0)),
        np.zeros((2, 2)),
        inv,
    )
    cons = ConstraintSet(
        inv, closed_world=True, allowed_pairs={("A", "B"): frozenset({"r"})}
    )
    # overlapping typed spans
    st = DecodedStructure((1, 1, 0), (0, 0), 0.0)
    kinds = [v.kind for v in check_constraints(st, cons, inst)]
    assert kinds == ["non-overlap"]
    # relation with an untyped endpoint
    st = DecodedStructure((1, 0, 0), (1, 0), 0.0)
    kinds = [v.kind for v in check_constraints(st, cons, inst)]
    assert kinds == ["consistency"]
    # typed pair outside the whitelist: (B, A) has no entry, closed world
    st = DecodedStructure((2, 0, 1), (1, 0), 0.0)
    kinds = [v.kind for v in check_constraints(st, cons, inst)]
    assert kinds == ["whitelist"]
    # a feasible structure
    st = DecodedStructure((1, 0, 2), (1, 0), 0.0)
    assert check_constraints(st, cons, inst) == []
    # untyped endpoints are fine when the endpoint rule is off
    relaxed = ConstraintSet(inv, consistency=False, closed_world=True)
    st = DecodedStructure((0, 0, 0), (1, 1), 0.0)
    assert check_constraints(st, relaxed, inst) == []
    with pytest.raises(ValueError):
        check_constraints(DecodedStructure((0,), (0, 0), 0.0), cons, inst)


def test_structure_score_manual():
    inv = make_inventory(2, 2)
    rng = make_rng(0)
    ent = rng.normal(size=(2, 3))
    rel = rng.normal(size=(1, 3))
    bias = random_bias(rng, 3, 3, 0.5)
    inst = ScoredInstance(4, ((0, 0), (2, 3)), ent, ((0, 1),), rel, inv, bias=bias)
    # typed endpoints pick up the bias, null labels still contribute logits
    got = structure_score(inst, (1, 2), (1,))
    want = ent[0, 1] + ent[1, 2] + rel[0, 1] + bias.combined()[1, 2, 1]
    assert got == pytest.approx(want, abs=1e-12)
    # a null endpoint suppresses the bias term entirely
    got = structure_score(inst, (0, 2), (1,))
    assert got == pytest.approx(ent[0, 0] + ent[1, 2] + rel[0, 1], abs=1e-12)
    # bias can be switched off
    got = structure_score(inst, (1, 2), (1,), use_bias=False)
    assert got == pytest.approx(ent[0, 1] + ent[1, 2] + rel[0, 1], abs=1e-12)


# ---------------------------------------------------------------------------
# unconstrained


def test_unconstrained_is_rowwise_argmax():
    rng = make_rng(1)
    inst = random_instance(rng, n_spans=5, n_pairs=6)
    st = unconstrained_decode(inst)
    for i, row in enumerate(inst.entity_logits):
        assert st.entity_labels[i] == int(np.argmax(row))
    for p, row in enumerate(inst.relation_logits):
        assert st.relation_labels[p] == int(np.argmax(row))
    assert st.score == pytest.approx(
        structure_score(inst, st.entity_labels, st.relation_labels, use_bias=False)
    )


def test_unconstrained_can_violate_rules():
    inv = make_inventory(1, 1)
    ent = np.array([[0.0, 1.0], [0.0, 1.0]])
    rel = np.array([[0.0, 1.0]])
    inst = ScoredInstance(3, ((0, 1), (1, 2)), ent, ((0, 1),), rel, inv)
    st = unconstrained_decode(inst)
    kinds = {v.kind for v in check_constraints(st, permissive(inv), inst)}
    assert "non-overlap" in kinds


def test_relation_items_sentinel_for_untyped_endpoints():
    inv = make_inventory(1, 1)
    ent = np.array([[1.0, 0.0], [0.0, 1.0]])
    rel = np.array([[0.0, 2.0]])
    inst = ScoredInstance(4, ((0, 0), (2, 2)), ent, ((0, 1),), rel, inv)
    st = unconstrained_decode(inst)
    ents = st.entity_items(inst)
    rels = st.relation_items(inst, use_bias=False)
    assert ents == [(2, 2, 1, pytest.approx(1.0))]
    # head span decoded null: reported as -1, tail points at entity 0
    assert rels == [(-1, 0, 1, pytest.approx(2.0))]


# ---------------------------------------------------------------------------
# interval selection


def test_max_weight_nonoverlap_examples():
    # overlapping pair: the heavier one wins
    assert max_weight_nonoverlap([(0, 1, 5.0), (1, 2, 4.0)]) == (0,)
    # disjoint: both taken
    assert max_weight_nonoverlap([(0, 1, 5.0), (2, 3, 4.0)]) == (0, 1)
    # all negative: empty set wins
    assert max_weight_nonoverlap([(0, 1, -1.0), (2, 3, -2.0)]) == ()
    assert max_weight_nonoverlap([]) == ()
    # chain where the ends beat the middle
    assert max_weight_nonoverlap([(0, 1, 3.0), (1, 2, 5.0), (2, 3, 3.0)]) == (0, 2)


def test_max_weight_nonoverlap_vs_sweep():
    rng = make_rng(2)
    for _ in range(150):
        count = int(rng.integers(1, 13))
        length = int(rng.integers(1, 13))
        cands = random_intervals(rng, length, max_width=4, count=count)
        chosen = max_weight_nonoverlap(cands)
        total = sum(cands[i][2] for i in chosen)
        best, _ = oracle_subset_max(cands)
        assert total == pytest.approx(best, abs=1e-9)
        # chosen set must itself be disjoint
        for a, b in itertools.combinations(chosen, 2):
            assert not spans_overlap(cands[a][:2], cands[b][:2])


def test_oracle_subset_max_limits():
    assert oracle_subset_max([]) == (0.0, ())
    with pytest.raises(ValueError):
        oracle_subset_max([(0, 0, 1.0)] * 21)


# ---------------------------------------------------------------------------
# entity-first


def test_entity_first_matches_sweep_oracle():
    rng = make_rng(3)
    for _ in range(100):
        inst = random_instance(
            rng,
            n_spans=int(rng.integers(1, 7)),
            n_pairs=int(rng.integers(0, 7)),
            bias_scale=0.5 if rng.random() < 0.5 else 0.0,
        )
        cons = random_constraints(rng, inst.inventory)
        use_bias = bool(rng.random() < 0.5)
        got = entity_first_decode(inst, cons, use_bias)
        want = oracle_entity_first(inst, cons, use_bias)
        assert got.score == pytest.approx(want.score, abs=1e-9)
        assert got.entity_labels == want.entity_labels
        assert got.relation_labels == want.relation_labels


def test_entity_first_output_is_feasible():
    rng = make_rng(4)
    for _ in range(100):
        inst = random_instance(rng, n_spans=int(rng.integers(1, 8)), n_pairs=6)
        cons = random_constraints(rng, inst.inventory)
        st = entity_first_decode(inst, cons)
        assert check_constraints(st, cons, inst) == []


def test_entity_first_keeps_overlaps_when_rule_off():
    inv = make_inventory(1, 1)
    ent = np.array([[0.0, 2.0], [0.0, 1.0]])
    inst = ScoredInstance(3, ((0, 1), (1, 2)), ent, (), np.zeros((0, 2)), inv)
    off = ConstraintSet(inv, non_overlap=False)
    st = entity_first_decode(inst, off)
    assert st.entity_labels == (1, 1)
    on = ConstraintSet(inv, non_overlap=True)
    st = entity_first_decode(inst, on)
    assert st.entity_labels == (1, 0)


# ---------------------------------------------------------------------------
# joint


def test_joint_matches_oracle_fuzz():
    rng = make_rng(5)
    for _ in range(60):
        inst = random_instance(
            rng,
            n_spans=int(rng.integers(1, 6)),
            n_pairs=int(rng.integers(0, 6)),
            n_entity_types=int(rng.integers(1, 4)),
            n_relation_types=int(rng.integers(1, 4)),
            bias_scale=0.7 if rng.random() < 0.5 else 0.0,
        )
        cons = random_constraints(
            rng, inst.inventory, consistency=bool(rng.random() < 0.8)
        )
        use_bias = bool(rng.random() < 0.5)
        got = joint_decode(inst, cons, use_bias)
        want = oracle_joint(inst, cons, use_bias)
        assert got.score == pytest.approx(want.score, abs=1e-9)
        assert got.entity_labels == want.entity_labels
        assert got.relation_labels == want.relation_labels
        assert check_constraints(got, cons, inst) == []


def test_joint_matches_full_cartesian_oracle():
    """Micro instances, every flag combination, against the oracle that
    shares nothing with the solver (cartesian sweep + rule check)."""
    rng = make_rng(6)
    for non_overlap in (False, True):
        for consistency in (False, True):
            for closed_world in (False, True):
                for use_bias in (False, True):
                    for _ in range(6):
                        inst = random_instance(
                            rng,
                            length=5,
                            n_spans=3,
                            n_pairs=2,
                            n_entity_types=2,
                            n_relation_types=2,
                            bias_scale=0.8 if use_bias else 0.0,
                        )
                        cons = random_constraints(
                            rng,
                            inst.inventory,
                            non_overlap=non_overlap,
                            consistency=consistency,
                            closed_world=closed_world,
                        )
                        got = joint_decode(inst, cons, use_bias)
                        want = oracle_joint_full(inst, cons, use_bias)
                        assert got.score == pytest.approx(want, abs=1e-9)
                        assert check_constraints(got, cons, inst) == []


def test_joint_tie_structures_match_oracle():
    rng = make_rng(7)
    for _ in range(40):
        inst = random_instance(rng, n_spans=4, n_pairs=4)
        # quantize to force exact ties
        inst = ScoredInstance(
            inst.length,
            inst.spans,
            np.round(inst.entity_logits),
            inst.pairs,
            np.round(inst.relation_logits),
            inst.inventory,
        )
        cons = random_constraints(rng, inst.inventory)
        got = joint_decode(inst, cons)
        want = oracle_joint(inst, cons)
        assert got.entity_labels == want.entity_labels
        assert got.relation_labels == want.relation_labels


def test_joint_bound_on_dense_overlaps_matches_oracle():
    """Crowded sentences, where the interval-DP part of joint's bound and
    its type-conditioned pair rows both decide prunes, under every flag
    combination: same labels as the labeling sweep, same score."""
    rng = make_rng(14)
    for non_overlap, consistency, closed_world, use_bias in itertools.product(
        (False, True), repeat=4
    ):
        for _ in range(4):
            inst = random_instance(
                rng,
                length=int(rng.integers(5, 7)),
                max_width=3,
                n_spans=int(rng.integers(6, 8)),
                n_pairs=int(rng.integers(4, 9)),
                n_entity_types=int(rng.integers(2, 4)),
                n_relation_types=2,
                bias_scale=0.8 if use_bias else 0.0,
            )
            # mixed-sign logits: null sometimes wins, sometimes loses
            inst = dataclasses.replace(
                inst, entity_logits=inst.entity_logits + rng.normal(0.0, 1.0)
            )
            cons = random_constraints(
                rng,
                inst.inventory,
                non_overlap=non_overlap,
                consistency=consistency,
                closed_world=closed_world,
            )
            got = joint_decode(inst, cons, use_bias)
            want = oracle_joint(inst, cons, use_bias)
            assert got.entity_labels == want.entity_labels
            assert got.relation_labels == want.relation_labels
            assert got.score == pytest.approx(want.score, abs=1e-9)


def test_joint_budget():
    rng = make_rng(8)
    inst = random_instance(rng, n_spans=6, n_pairs=6)
    cons = permissive(inst.inventory)
    with pytest.raises(BudgetExceededError):
        joint_decode(inst, cons, budget=3)
    full = joint_decode(inst, cons, budget=10**6)
    assert full.score == pytest.approx(joint_decode(inst, cons).score)


def test_joint_empty_instance():
    inv = make_inventory(2, 2)
    inst = ScoredInstance(3, (), np.zeros((0, 3)), (), np.zeros((0, 3)), inv)
    st = joint_decode(inst, permissive(inv))
    assert st.entity_labels == () and st.relation_labels == ()
    assert st.score == 0.0


# ---------------------------------------------------------------------------
# the shared search engine: depth and node accounting


@pytest.mark.parametrize("algorithm", ["joint", "relation_first"])
def test_exact_decoders_search_deeper_than_the_recursion_limit(algorithm):
    """1,100 single-token disjoint spans, three entity types and one pair:
    one search level per span, past Python's default recursion limit."""
    n = 1100
    inv = make_inventory(3, 2)
    rng = make_rng(21)
    inst = ScoredInstance(
        n,
        tuple((i, i) for i in range(n)),
        rng.normal(0.0, 1.0, (n, inv.num_entity_types)),
        ((0, 1),),
        rng.normal(0.0, 1.0, (1, inv.num_relation_types)),
        inv,
    )
    cons = permissive(inv)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        st = decode(inst, algorithm, cons)
    finally:
        sys.setrecursionlimit(limit)
    assert len(st.entity_labels) == n
    assert check_constraints(st, cons, inst) == []
    assert st.score >= decode(inst, "entity_first", cons).score - 1e-9


# Node counts of the exact searches on fixed inputs: each decode succeeds
# with budget n and raises with budget n - 1.  relation_first gives each of
# its two stages the full budget, so its n is the larger stage's count.
# A change in search order, bounds or node accounting moves these numbers.
PINNED_NODES = (
    # (source, instance index or sentence length, joint n, relation_first n)
    ("synthetic", 0, 78, 116),
    ("synthetic", 8, 140, 112),
    ("synthetic", 11, 91, 274),
    ("pipeline", 18, 120, 21),
    ("pipeline", 24, 293, 46),
    ("pipeline", 28, 360, 29),
    ("ace05", 5, 699, 425),
)


@pytest.fixture(scope="module")
def pinned_inputs():
    cons = load_constraint_set("conll04")
    ace05 = load_constraint_set("ace05")
    synthetic = {
        "synthetic": (synthetic_instances(12, 20, 0, cons), cons),
        "ace05": (synthetic_instances(12, 20, 0, ace05), ace05),
    }
    params = init_params(cons.inventory, dim=32, heads=2, max_span_width=8, seed=0)

    def instance(source: str, which: int) -> tuple[ScoredInstance, ConstraintSet]:
        if source in synthetic:
            batch, rules = synthetic[source]
            return batch[which], rules
        tokens = [f"w{j}" for j in make_rng(which).integers(0, 40, which)]
        return forward(tokens, params).instance, cons

    return instance


@pytest.mark.parametrize("source, which, joint_nodes, relation_first_nodes", PINNED_NODES)
def test_exact_search_node_counts_are_pinned(
    pinned_inputs, source, which, joint_nodes, relation_first_nodes
):
    inst, cons = pinned_inputs(source, which)
    for algorithm, n in (("joint", joint_nodes), ("relation_first", relation_first_nodes)):
        decode(inst, algorithm, cons, budget=n)
        with pytest.raises(BudgetExceededError):
            decode(inst, algorithm, cons, budget=n - 1)


# ---------------------------------------------------------------------------
# relation-first


def test_relation_first_matches_oracle_fuzz():
    """The endpoint rule is on in the first 60 cases and off in the last
    60, where stage 1 returns each pair's raw argmax."""
    rng = make_rng(9)
    for case in range(120):
        inst = random_instance(
            rng,
            n_spans=int(rng.integers(1, 6)),
            n_pairs=int(rng.integers(0, 6)),
            n_entity_types=int(rng.integers(1, 4)),
            n_relation_types=int(rng.integers(1, 4)),
            bias_scale=0.7 if rng.random() < 0.5 else 0.0,
        )
        cons = random_constraints(rng, inst.inventory, consistency=case < 60)
        use_bias = bool(rng.random() < 0.5)
        got = relation_first_decode(inst, cons, use_bias)
        want = oracle_relation_first(inst, cons, use_bias)
        if not cons.consistency:
            assert got.relation_labels == tuple(inst.relation_logits.argmax(axis=1).tolist())
        assert got.score == pytest.approx(want.score, abs=1e-9)
        assert got.entity_labels == want.entity_labels
        assert got.relation_labels == want.relation_labels
        assert check_constraints(got, cons, inst) == []


def _stage1_product_score(inst, cons):
    """Stage-1 optimum by unpruned enumeration over complete labelings."""
    n_rel = inst.relation_logits.shape[1]
    n_ent = inst.entity_logits.shape[1]
    best = -np.inf
    for rels in itertools.product(range(n_rel), repeat=len(inst.pairs)):
        chosen = [(p, r) for p, r in enumerate(rels) if r != 0]
        involved = sorted({v for p, _ in chosen for v in inst.pairs[p]})
        if cons.non_overlap and any(
            spans_overlap(inst.spans[a], inst.spans[b])
            for a, b in itertools.combinations(involved, 2)
        ):
            continue
        if chosen:
            if n_ent < 2:
                continue
            satisfiable = any(
                all(
                    cons.allows(t[involved.index(inst.pairs[p][0])],
                                t[involved.index(inst.pairs[p][1])], r)
                    for p, r in chosen
                )
                for t in itertools.product(range(1, n_ent), repeat=len(involved))
            )
            if not satisfiable:
                continue
        best = max(
            best, sum(float(inst.relation_logits[p, r]) for p, r in enumerate(rels))
        )
    return best


def test_relation_first_stage1_exact_by_product():
    rng = make_rng(10)
    for _ in range(40):
        inst = random_instance(
            rng,
            length=6,
            n_spans=int(rng.integers(2, 5)),
            n_pairs=int(rng.integers(1, 5)),
            n_entity_types=2,
            n_relation_types=2,
        )
        cons = random_constraints(rng, inst.inventory, consistency=True)
        # integer logits: stage 1 then has exactly tied optima
        rounded = dataclasses.replace(
            inst,
            entity_logits=np.round(inst.entity_logits),
            relation_logits=np.round(inst.relation_logits),
        )
        for case in (inst, rounded):
            st = relation_first_decode(case, cons)
            got = sum(
                float(case.relation_logits[p, r])
                for p, r in enumerate(st.relation_labels)
            )
            assert got == pytest.approx(_stage1_product_score(case, cons), abs=1e-9)
            assert check_constraints(st, cons, case) == []


def test_relation_first_whitelist_forces_typing():
    # a strong relation between two spans whose best entity types are
    # forbidden for it: stage 2 must deviate to the allowed typing
    inv = TypeInventory.from_names(["A", "B"], ["r"])
    cons = ConstraintSet(
        inv, closed_world=True, allowed_pairs={("A", "B"): frozenset({"r"})}
    )
    ent = np.array([[0.0, 1.0, 5.0], [0.0, 1.0, 5.0]])  # both prefer B
    rel = np.array([[0.0, 50.0]])  # r dominates stage 1
    inst = ScoredInstance(4, ((0, 0), (2, 2)), ent, ((0, 1),), rel, inv)
    st = relation_first_decode(inst, cons)
    assert st.relation_labels == (1,)
    assert st.entity_labels == (inv.entity_index("A"), inv.entity_index("B"))
    assert check_constraints(st, cons, inst) == []


def test_relation_first_budget():
    rng = make_rng(11)
    inst = random_instance(rng, n_spans=5, n_pairs=8)
    with pytest.raises(BudgetExceededError):
        relation_first_decode(inst, permissive(inst.inventory), budget=2)


# ---------------------------------------------------------------------------
# cross-algorithm properties


def test_joint_dominates_staged_decoders():
    rng = make_rng(12)
    for _ in range(50):
        inst = random_instance(
            rng, n_spans=int(rng.integers(1, 6)), n_pairs=int(rng.integers(0, 6)),
            bias_scale=0.5,
        )
        cons = random_constraints(rng, inst.inventory, consistency=True)
        top = joint_decode(inst, cons).score
        assert top >= entity_first_decode(inst, cons).score - 1e-9
        assert top >= relation_first_decode(inst, cons).score - 1e-9


def test_argmax_invariance_under_constant_shift():
    """Adding a constant to one candidate's whole logit row must not change
    the decoded labels for the unconstrained, joint, and relation-first
    algorithms (every labeling shifts by the same amount)."""
    rng = make_rng(13)
    for _ in range(30):
        inst = random_instance(rng, n_spans=4, n_pairs=4)
        cons = random_constraints(rng, inst.inventory, consistency=True)
        shift = float(rng.uniform(-5.0, 5.0))
        which = int(rng.integers(0, len(inst.spans)))
        ent = inst.entity_logits.copy()
        ent[which] += shift
        p = int(rng.integers(0, len(inst.pairs)))
        rel = inst.relation_logits.copy()
        rel[p] += shift
        shifted = ScoredInstance(
            inst.length, inst.spans, ent, inst.pairs, rel, inst.inventory
        )
        for algorithm in ("unconstrained", "joint", "relation_first"):
            a = decode(inst, algorithm, cons)
            b = decode(shifted, algorithm, cons)
            assert a.entity_labels == b.entity_labels, algorithm
            assert a.relation_labels == b.relation_labels, algorithm


def test_entity_first_not_shift_invariant():
    """Documented limitation: the interval DP weighs spans by their absolute
    chosen-type logit, so a constant shift can flip which overlapping span
    survives, while the exact joint decoder is unaffected."""
    inv = make_inventory(1, 1)
    cons = permissive(inv)
    ent = np.array([[0.0, 1.0], [0.0, 1.5]])
    inst = ScoredInstance(3, ((0, 1), (1, 2)), ent, (), np.zeros((0, 2)), inv)
    shifted = ScoredInstance(
        3, inst.spans, ent + np.array([[1.0], [0.0]]), (), np.zeros((0, 2)), inv
    )
    before = entity_first_decode(inst, cons)
    after = entity_first_decode(shifted, cons)
    assert before.entity_labels == (0, 1)
    assert after.entity_labels == (1, 0)  # the shift flipped the winner
    # joint keeps the same structure through the shift
    assert joint_decode(inst, cons).entity_labels == joint_decode(
        shifted, cons
    ).entity_labels == (0, 1)


def test_decode_dispatch():
    rng = make_rng(14)
    inst = random_instance(rng, n_spans=3, n_pairs=2)
    cons = permissive(inst.inventory)
    assert decode(inst, "joint", cons).score == pytest.approx(
        joint_decode(inst, cons).score
    )
    assert (
        decode(inst, "unconstrained").entity_labels
        == unconstrained_decode(inst).entity_labels
    )
    with pytest.raises(ValueError):
        decode(inst, "entity-first", cons)  # internal names only here
    # default constraints permit everything
    free = decode(inst, "joint")
    assert free.score >= decode(inst, "joint", cons).score - 1e-9


def test_bundled_constraints_block_forbidden_triples():
    cons = load_constraint_set("conll04")
    inv = cons.inventory
    peop = inv.entity_index("Peop")
    loc = inv.entity_index("Loc")
    org = inv.entity_index("Org")
    work_for = inv.relation_index("Work_For")
    kill = inv.relation_index("Kill")
    live_in = inv.relation_index("Live_in")
    assert cons.allows(peop, org, work_for)
    assert not cons.allows(peop, peop, work_for)
    assert not cons.allows(peop, loc, kill)
    assert cons.allows(peop, loc, live_in)

    # logits that crave a forbidden triple: decoders must pick a legal one
    ent = np.full((2, inv.num_entity_types), -1.0)
    ent[0, peop] = 4.0
    ent[1, peop] = 4.0
    rel = np.full((1, inv.num_relation_types), -1.0)
    rel[0, work_for] = 6.0
    rel[0, 0] = 0.0
    inst = ScoredInstance(5, ((0, 0), (3, 4)), ent, ((0, 1),), rel, inv)
    for algorithm in ("entity_first", "joint", "relation_first"):
        st = decode(inst, algorithm, cons, use_bias=False)
        assert check_constraints(st, cons, inst) == []
        h, t = inst.pairs[0]
        if st.relation_labels[0] == work_for:
            # only legal if the typing moved off (Peop, Peop)
            assert (st.entity_labels[h], st.entity_labels[t]) != (peop, peop)


def test_whitelist_holds_when_permitted_cells_score_below_the_sentinel():
    """Relation logits of -1e300 put every permitted cell far below
    NEG_SENTINEL; a forbidden cell still never wins, so each constrained
    decoder leaves the (Peop, Org) pair null, not Live_in."""
    cons = load_constraint_set("conll04")
    inv = cons.inventory
    ent = np.full((2, inv.num_entity_types), -1.0)
    ent[0, inv.entity_index("Peop")] = 4.0
    ent[1, inv.entity_index("Org")] = 4.0
    rel = np.full((1, inv.num_relation_types), -1e300)
    inst = ScoredInstance(5, ((0, 0), (3, 4)), ent, ((0, 1),), rel, inv)
    for algorithm in ("entity_first", "joint", "relation_first"):
        st = decode(inst, algorithm, cons, use_bias=False)
        assert st.relation_labels == (0,), algorithm
        assert check_constraints(st, cons, inst) == [], algorithm


def test_violation_reporting_reads_well():
    v = Violation("whitelist", "relation Kill not allowed between Peop and Loc")
    assert "Kill" in v.detail and v.kind == "whitelist"


def test_unconstrained_constraints_permit_everything():
    inv = make_inventory(2, 2)
    cons = unconstrained_constraints(inv)
    assert not cons.non_overlap and not cons.consistency
    for eh in range(3):
        for et in range(3):
            for r in range(3):
                assert cons.allows(eh, et, r)


def test_the_permit_all_set_is_built_once_per_inventory():
    """unconstrained_constraints returns one set per inventory, so a decode
    given no constraint set reuses its compiled whitelist instead of
    building and compiling a new set per sentence."""
    inst = random_instance(make_rng(33), inventory=make_inventory(2, 3))
    cons = unconstrained_constraints(inst.inventory)
    assert unconstrained_constraints(make_inventory(2, 3)) is cons
    unconstrained_constraints.cache_clear()
    first = decode(inst, "unconstrained")
    cons = unconstrained_constraints(inst.inventory)
    allowed = vars(cons)["allowed"]  # compiled by the first decode
    misses = unconstrained_constraints.cache_info().misses
    assert decode(inst, "unconstrained") == first
    decode(inst, "entity_first")
    decode(inst, "entity_first")
    assert unconstrained_constraints.cache_info().misses == misses == 1
    assert unconstrained_constraints(inst.inventory).allowed is allowed


def test_decode_refuses_a_non_finite_objective():
    """A finite 1e308 bias entry makes joint's objective overflow; decode()
    raises instead of returning inf, and no algorithm returns a non-finite
    objective."""
    import json
    import math
    from pathlib import Path

    from spanrel.formats import instances_from_score_doc

    doc = json.loads((Path(__file__).parent / "fixtures" / "golden_score.json").read_text())
    doc["bias"]["joint"][1][1][0] = 1e308
    instances = instances_from_score_doc(doc)
    raised = set()
    for algorithm in ("unconstrained", "entity_first", "joint", "relation_first"):
        for inst in instances:
            try:
                st = decode(inst, algorithm, ConstraintSet(inst.inventory))
            except ValueError as exc:
                assert str(exc).startswith(f"{algorithm} objective is inf")
                raised.add(algorithm)
            else:
                assert math.isfinite(st.score)
    assert "joint" in raised


# ---------------------------------------------------------------------------
# documents


def _document(rng, count: int, tables: list) -> list[ScoredInstance]:
    """count random sentences of one inventory; sentence k takes bias table
    tables[k % len(tables)], so runs of shared tables and None alternate.
    Lengths from 1 to 6 put spans at both ends of neighbouring sentences."""
    inv = make_inventory(3, 3)
    doc = []
    for k in range(count):
        length = int(rng.integers(1, 7))
        inst = random_instance(
            rng, length=length, max_width=3, inventory=inv,
            n_spans=int(rng.integers(0, 8)), n_pairs=int(rng.integers(0, 10)),
        )
        doc.append(dataclasses.replace(inst, bias=tables[k % len(tables)]))
    return doc


# each algorithm's single-sentence function, called as decode calls it
ALONE = {
    "unconstrained": lambda inst, cons, use_bias: unconstrained_decode(inst),
    "entity_first": entity_first_decode,
    "joint": joint_decode,
    "relation_first": relation_first_decode,
}


@pytest.mark.parametrize("algorithm", ["entity_first", "unconstrained", "joint", "relation_first"])
@pytest.mark.parametrize("use_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize(
    "non_overlap, consistency",
    [(True, True), (False, True), (True, False), (False, False)],
    ids=["both-rules", "no-overlap-rule", "no-consistency", "no-rules"],
)
def test_document_decode_equals_decoding_each_sentence(
    algorithm, use_bias, non_overlap, consistency
):
    """Each sentence of a document, decoded one decode call at a time as
    spanrel decode does, decodes to what its algorithm's own function
    gives, whatever bias table the sentence carries: the same labels and
    the same objective, bit for bit.  Except for joint, whose search adds
    the terms in its own order, that objective is structure_score's sum of
    the chosen terms."""
    rng = make_rng(31)
    inv = make_inventory(3, 3)
    shared, other = random_bias(rng, 4, 4, 0.8), random_bias(rng, 4, 4, 0.8)
    doc = _document(rng, 60, [shared, shared, None, shared, other, other, other])
    cons = random_constraints(rng, inv, non_overlap=non_overlap, consistency=consistency)
    applied = use_bias and algorithm != "unconstrained"
    structures = []
    for inst in doc:
        st = decode(inst, algorithm, cons, use_bias)
        alone = ALONE[algorithm](inst, cons, use_bias)
        assert st == alone
        assert st.score.hex() == alone.score.hex()
        score = structure_score(inst, st.entity_labels, st.relation_labels, applied)
        if algorithm == "joint":
            assert st.score == pytest.approx(score, rel=1e-12, abs=1e-12)
        else:
            assert st.score.hex() == score.hex()
        structures.append(st)
    assert any(st.relation_labels and any(st.relation_labels) for st in structures)


def test_a_document_reports_the_first_non_finite_objective():
    """The sentence facts spanrel decode's report of a document's first
    failure rests on: an objective past the float range raises under every
    algorithm and any budget that finishes the search, and a search that
    runs out of budget raises BudgetExceededError instead."""
    inv = make_inventory(1, 1)
    huge = ScoredInstance(2, ((0, 0), (1, 1)), np.array([[0.0, 1e308], [0.0, 1e308]]),
                          (), np.zeros((0, 2)), inv)
    rng = make_rng(32)
    hard = random_instance(rng, n_spans=6, n_pairs=8, inventory=inv)
    cons = ConstraintSet(inv, non_overlap=False)
    for algorithm in ALGORITHMS:
        with pytest.raises(ValueError, match=f"^{algorithm} objective is inf"):
            decode(huge, algorithm, cons, budget=10**6)
        assert np.isfinite(decode(hard, algorithm, cons, budget=10**6).score)
    # 3 nodes finish the two-span sentence but not the six-span one
    with pytest.raises(ValueError, match="^joint objective is inf"):
        decode(huge, "joint", cons, budget=3)
    with pytest.raises(BudgetExceededError):
        decode(hard, "joint", cons, budget=3)
