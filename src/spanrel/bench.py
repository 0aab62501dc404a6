"""Synthetic decoding benchmark.

Generates a seeded batch of scored instances shaped like mid-length
sentences, times each decoding algorithm over the whole batch, and
reports sentences per second.  The instance set is a pure function of
the seed; timings of course are not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .decode import ALGORITHMS, ConstraintSet, ScoredInstance, decode
from .numerics import make_rng
from .representation import BiasTable

# entity-first must beat joint by at least this factor for --assert-ordering
ORDERING_FACTOR = 3.0


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    sentences: int
    seconds: float
    per_second: float


def synthetic_instances(
    count: int,
    length: int,
    seed: int,
    constraints: ConstraintSet,
    spans_per_sentence: tuple[int, int] = (10, 14),
    max_width: int = 4,
) -> list[ScoredInstance]:
    """Random scored instances over the constraint set's inventory.

    Span count is drawn per sentence from spans_per_sentence; spans are
    distinct, width-capped, sorted by position.  Logits are normal with
    a mild tilt toward the null column, keeping decoded structures
    sparse the way trained models are.  Raises ValueError when length
    admits fewer distinct spans than a sentence may draw.
    """
    lo, hi = spans_per_sentence
    width = min(max_width, length)
    if hi > width * length - width * (width - 1) // 2:  # distinct spans
        raise ValueError(f"length {length} admits fewer than {hi} spans of width <= {max_width}")
    rng = make_rng(seed)
    inv = constraints.inventory
    n_ent = inv.num_entity_types
    n_rel = inv.num_relation_types
    bias = BiasTable(
        joint=rng.normal(0.0, 0.2, (n_ent, n_ent, n_rel)),
        head_relation=rng.normal(0.0, 0.2, (n_ent, n_rel)),
        tail_relation=rng.normal(0.0, 0.2, (n_ent, n_rel)),
        head_tail=rng.normal(0.0, 0.2, (n_ent, n_ent)),
    )
    out = []
    for _ in range(count):
        want = int(rng.integers(lo, hi + 1))
        spans: set[tuple[int, int]] = set()
        while len(spans) < want:
            start = int(rng.integers(0, length))
            width = int(rng.integers(1, max_width + 1))
            end = min(start + width - 1, length - 1)
            spans.add((start, end))
        span_list = tuple(sorted(spans))
        s = len(span_list)
        n_pairs = min(2 * s, s * (s - 1))
        all_pairs = [(h, t) for h in range(s) for t in range(s) if h != t]
        idx = rng.choice(len(all_pairs), size=n_pairs, replace=False)
        pair_list = tuple(all_pairs[i] for i in sorted(idx))
        ent_logits = rng.normal(0.0, 2.0, (s, n_ent))
        ent_logits[:, 0] += 1.0
        rel_logits = rng.normal(0.0, 2.0, (n_pairs, n_rel))
        rel_logits[:, 0] += 1.5
        out.append(
            ScoredInstance(
                length=length,
                spans=span_list,
                entity_logits=ent_logits,
                pairs=pair_list,
                relation_logits=rel_logits,
                inventory=inv,
                bias=bias,
            )
        )
    return out


def run_bench(
    instances: list[ScoredInstance],
    constraints: ConstraintSet,
    algorithms: tuple[str, ...] = ALGORITHMS,
    use_bias: bool = True,
    budget: int | None = None,
) -> list[BenchRow]:
    """Decode the whole batch once per algorithm and time it."""
    rows = []
    if not instances:
        return rows
    for name in algorithms:
        t0 = time.perf_counter()
        for inst in instances:
            decode(inst, name, constraints, use_bias=use_bias, budget=budget)
        elapsed = time.perf_counter() - t0
        rate = len(instances) / elapsed if elapsed > 0 else float("inf")
        rows.append(BenchRow(name, len(instances), elapsed, rate))
    return rows


def format_table(rows: list[BenchRow]) -> str:
    if not rows:
        return "no sentences benchmarked\n"
    width = max(len(r.algorithm) for r in rows)
    lines = [f"{'algorithm':<{width}}  sentences  seconds  sent/s"]
    for r in rows:
        lines.append(
            f"{r.algorithm:<{width}}  {r.sentences:>9d}  {r.seconds:>7.3f}  {r.per_second:>6.1f}"
        )
    return "\n".join(lines) + "\n"


def ordering_ok(rows: list[BenchRow], factor: float = ORDERING_FACTOR) -> bool:
    """Entity-first throughput at least `factor` times joint throughput.

    Vacuously true when either algorithm was not benchmarked.
    """
    rates = {r.algorithm: r.per_second for r in rows}
    if "entity_first" not in rates or "joint" not in rates:
        return True
    return rates["entity_first"] >= factor * rates["joint"]


__all__ = [
    "ORDERING_FACTOR",
    "BenchRow",
    "format_table",
    "ordering_ok",
    "run_bench",
    "synthetic_instances",
]
