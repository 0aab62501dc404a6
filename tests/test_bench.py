"""Synthetic benchmark: instance generation, timing rows, ordering check."""

from __future__ import annotations

import numpy as np
import pytest

from spanrel import (
    BenchRow,
    ConstraintSet,
    check_constraints,
    decode,
    format_table,
    load_constraint_set,
    ordering_ok,
    run_bench,
    synthetic_instances,
)


def test_synthetic_instances_deterministic():
    cons = load_constraint_set("conll04")
    a = synthetic_instances(5, 12, seed=3, constraints=cons)
    b = synthetic_instances(5, 12, seed=3, constraints=cons)
    c = synthetic_instances(5, 12, seed=4, constraints=cons)
    assert len(a) == 5
    for x, y in zip(a, b):
        assert x.spans == y.spans
        assert x.pairs == y.pairs
        assert np.array_equal(x.entity_logits, y.entity_logits)
        assert np.array_equal(x.relation_logits, y.relation_logits)
    assert any(
        not np.array_equal(x.entity_logits, z.entity_logits) for x, z in zip(a, c)
    )


def test_synthetic_instances_well_formed():
    cons = load_constraint_set("ace05")
    instances = synthetic_instances(8, 15, seed=1, constraints=cons)
    for pos, inst in enumerate(instances):
        assert inst.length == 15
        assert 10 <= len(inst.spans) <= 14
        assert inst.spans == tuple(sorted(set(inst.spans)))
        for i, j in inst.spans:
            assert 0 <= i <= j < 15 and j - i + 1 <= 4
        assert len(inst.pairs) == len(set(inst.pairs))
        assert all(h != t for h, t in inst.pairs)
        assert inst.inventory is cons.inventory
        assert inst.entity_logits.shape == (
            len(inst.spans),
            cons.inventory.num_entity_types,
        )
        # decoded output under the bundled table must be clean
        if pos < 2:
            st = decode(inst, "joint", cons)
        else:
            st = decode(inst, "entity_first", cons)
        assert check_constraints(st, cons, inst) == []


def test_synthetic_instances_refuse_lengths_with_too_few_spans():
    """Lengths 1-4 admit 1, 3, 6 and 10 distinct spans of width <= 4, fewer
    than the 14 a sentence may draw: the span draw would never end."""
    cons = load_constraint_set("conll04")
    for length in (1, 2, 3, 4):
        with pytest.raises(ValueError, match=f"length {length} admits"):
            synthetic_instances(1, length, seed=0, constraints=cons)
    # exactly enough: all 14 spans of length 5 can be drawn
    assert len(synthetic_instances(2, 5, seed=0, constraints=cons)[0].spans) >= 10
    assert synthetic_instances(1, 3, 0, cons, spans_per_sentence=(2, 6))


def test_run_bench_rows_and_table():
    cons = load_constraint_set("conll04")
    instances = synthetic_instances(3, 10, seed=2, constraints=cons)
    rows = run_bench(instances, cons, algorithms=("entity_first", "unconstrained"))
    assert [r.algorithm for r in rows] == ["entity_first", "unconstrained"]
    for r in rows:
        assert r.sentences == 3
        assert r.seconds >= 0.0
        assert r.per_second > 0.0
    table = format_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["algorithm", "sentences", "seconds", "sent/s"]
    assert len(lines) == 3
    assert table.endswith("\n")
    assert run_bench([], cons) == []
    assert format_table([]) == "no sentences benchmarked\n"


def test_ordering_ok():
    fast = BenchRow("entity_first", 10, 0.001, 10000.0)
    slow = BenchRow("joint", 10, 0.1, 100.0)
    assert ordering_ok([fast, slow])
    assert not ordering_ok([BenchRow("entity_first", 10, 0.05, 200.0), slow])
    assert ordering_ok([BenchRow("entity_first", 10, 0.05, 200.0), slow], factor=1.5)
    # vacuous when either side is missing
    assert ordering_ok([fast])
    assert ordering_ok([slow])
    assert ordering_ok([])


def test_constraint_file_default_flags():
    cons = ConstraintSet(load_constraint_set("conll04").inventory)
    assert cons.non_overlap and cons.consistency and not cons.closed_world
    assert cons.allowed_pairs == {}
