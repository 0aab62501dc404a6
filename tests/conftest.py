"""Shared test helpers: random instance generators, acceptance reporting and
the collector-state fixture."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from spanrel import BiasTable, ConstraintSet, ScoredInstance, TypeInventory

# criterion number -> (status, one-line summary), printed after the run
ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def record_criterion(number: int, passed: bool, summary: str) -> None:
    ACCEPTANCE_RESULTS[number] = ("PASS" if passed else "FAIL", summary)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        status, summary = ACCEPTANCE_RESULTS[n]
        terminalreporter.write_line(f"criterion {n}: {status} - {summary}")


def make_inventory(n_entity_types: int, n_relation_types: int) -> TypeInventory:
    """Inventory with n real types per side (nulls prepended on top)."""
    return TypeInventory.from_names(
        [f"E{i}" for i in range(1, n_entity_types + 1)],
        [f"R{i}" for i in range(1, n_relation_types + 1)],
    )


def sample_spans(rng, length: int, max_width: int, n_spans: int):
    pool = [
        (i, j) for i in range(length) for j in range(i, min(i + max_width, length))
    ]
    take = min(n_spans, len(pool))
    idx = rng.choice(len(pool), size=take, replace=False)
    return tuple(pool[int(i)] for i in sorted(idx))


def sample_pairs(rng, n_spans: int, n_pairs: int):
    pool = [(h, t) for h in range(n_spans) for t in range(n_spans) if h != t]
    if not pool:
        return ()
    take = min(n_pairs, len(pool))
    idx = rng.choice(len(pool), size=take, replace=False)
    return tuple(pool[int(i)] for i in sorted(idx))


def random_bias(rng, n_entity_types: int, n_relation_types: int, scale: float):
    e, r = n_entity_types, n_relation_types
    return BiasTable(
        joint=rng.normal(0.0, scale, (e, e, r)),
        head_relation=rng.normal(0.0, scale, (e, r)),
        tail_relation=rng.normal(0.0, scale, (e, r)),
        head_tail=rng.normal(0.0, scale, (e, e)),
    )


def random_instance(
    rng,
    *,
    length: int = 8,
    max_width: int = 3,
    n_spans: int = 4,
    n_pairs: int = 4,
    inventory: TypeInventory | None = None,
    n_entity_types: int = 3,
    n_relation_types: int = 3,
    scale: float = 2.0,
    bias_scale: float = 0.0,
) -> ScoredInstance:
    """A fuzzed ScoredInstance with distinct spans and distinct ordered pairs."""
    if inventory is None:
        inventory = make_inventory(n_entity_types, n_relation_types)
    spans = sample_spans(rng, length, max_width, n_spans)
    pairs = sample_pairs(rng, len(spans), n_pairs)
    ent = rng.normal(0.0, scale, (len(spans), inventory.num_entity_types))
    rel = rng.normal(0.0, scale, (len(pairs), inventory.num_relation_types))
    bias = None
    if bias_scale > 0.0:
        bias = random_bias(
            rng, inventory.num_entity_types, inventory.num_relation_types, bias_scale
        )
    return ScoredInstance(length, spans, ent, pairs, rel, inventory, bias=bias)


def random_constraints(
    rng,
    inventory: TypeInventory,
    *,
    non_overlap: bool | None = None,
    consistency: bool = True,
    closed_world: bool | None = None,
    density: float = 0.5,
) -> ConstraintSet:
    """A fuzzed whitelist over the inventory's real types."""
    ents = inventory.entity_types[1:]
    rels = inventory.relation_types[1:]
    allowed = {}
    for h in ents:
        for t in ents:
            if rng.random() < density and rels:
                count = int(rng.integers(1, len(rels) + 1))
                members = rng.choice(len(rels), size=count, replace=False)
                allowed[(h, t)] = frozenset(rels[int(i)] for i in members)
    if non_overlap is None:
        non_overlap = bool(rng.random() < 0.5)
    if closed_world is None:
        closed_world = bool(rng.random() < 0.5)
    return ConstraintSet(
        inventory,
        non_overlap=non_overlap,
        consistency=consistency,
        closed_world=closed_world,
        allowed_pairs=allowed,
    )


def random_intervals(rng, length: int, max_width: int, count: int):
    """(start, end, weight) candidates for the interval-selection tests;
    duplicates are allowed, weights are signed."""
    out = []
    for _ in range(count):
        start = int(rng.integers(0, length))
        end = min(length - 1, start + int(rng.integers(0, max_width)))
        out.append((start, end, float(rng.normal(0.0, 3.0))))
    return out


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The collector's state around a test, set to the parameter; restored after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()
