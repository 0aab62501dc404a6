"""Maximum-weight non-overlapping span selection, worked by hand.

The entity-first decoder commits to spans by solving a weighted interval
scheduling problem exactly.  This script runs the O(n log n) dynamic
program on a small instance, prints the choice it makes, and confirms
the total against the exponential subset sweep.
"""

from __future__ import annotations

import itertools

from spanrel import make_rng, max_weight_nonoverlap, spans_overlap


def sweep_best(candidates) -> float:
    """Best total over every pairwise-disjoint subset, by enumeration."""
    best = 0.0  # the empty set
    for size in range(1, len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            pairs = itertools.combinations(subset, 2)
            if not any(spans_overlap(a[:2], b[:2]) for a, b in pairs):
                best = max(best, sum(c[2] for c in subset))
    return best


def show(name: str, candidates) -> None:
    chosen = max_weight_nonoverlap(candidates)
    total = sum(candidates[i][2] for i in chosen)
    best = sweep_best(candidates)
    print(f"{name}:")
    for i, (s, e, w) in enumerate(candidates):
        mark = "*" if i in chosen else " "
        print(f"  {mark} [{s:2d},{e:2d}] weight {w:+.2f}")
    print(f"  DP total {total:.2f}, sweep total {best:.2f}\n")
    assert abs(total - best) < 1e-9


def main() -> None:
    # a chain where the greedy-by-weight choice is wrong: taking the
    # heavy middle interval blocks two lighter ones that together win
    show(
        "greedy trap",
        [(0, 3, 3.0), (2, 5, 4.0), (4, 7, 3.0)],
    )

    # negative weights are never forced in; the empty set is admissible
    show("all losing", [(0, 2, -1.0), (1, 4, -0.5)])

    # touching endpoints conflict (ends are inclusive), nested spans too
    show(
        "boundary cases",
        [(0, 2, 2.0), (2, 4, 2.5), (5, 5, 1.0), (5, 6, 1.2), (1, 1, 0.4)],
    )

    rng = make_rng(5)
    for trial in range(3):
        n = int(rng.integers(5, 11))
        cands = [
            (int(s), int(s + rng.integers(0, 4)), float(rng.normal(0, 2)))
            for s in rng.integers(0, 12, n)
        ]
        cands = [(s, min(e, 14), w) for s, e, w in cands]
        show(f"random trial {trial}", cands)

    print("dynamic program matched the 2**n sweep on every instance")


if __name__ == "__main__":
    main()
