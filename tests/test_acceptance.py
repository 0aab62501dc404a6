"""Acceptance gate: nine checks, one printed pass/fail line each.

Each test measures first, records its line for the terminal summary,
then asserts, so a failure still reports its criterion.  Expected
values come from independent oracles (exhaustive sweeps, stable sorts,
finite differences) or from tables transcribed by hand; never from the
code under test.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spanrel import (
    check_constraints,
    classification_loss,
    decode,
    finite_difference_gradient,
    joint_decode,
    load_constraint_set,
    make_rng,
    max_weight_nonoverlap,
    ranking_loss,
    relation_first_decode,
    softmax,
    softmax_rows,
    spans_overlap,
    top_k_select,
)
from spanrel.numerics import NEG_SENTINEL

from oracles import oracle_joint, oracle_relation_first, oracle_subset_max

from conftest import (
    make_inventory,
    random_constraints,
    random_instance,
    random_intervals,
    record_criterion,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env.pop("SPANREL_CONFIG", None)
    return subprocess.run(
        [sys.executable, "-m", "spanrel.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# 1. interval scheduling vs 2**n sweep


def test_criterion_1_interval_scheduling_exact():
    rng = make_rng(101)
    cases = 1000
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(cases):
        length = int(rng.integers(4, 13))
        max_width = int(rng.integers(1, 5))
        count = int(rng.integers(0, 13))
        intervals = random_intervals(rng, length, max_width, count)
        chosen = max_weight_nonoverlap(intervals)
        total = sum(intervals[i][2] for i in chosen)
        ok = all(
            not spans_overlap(intervals[a][:2], intervals[b][:2])
            for x, a in enumerate(chosen)
            for b in chosen[x + 1 :]
        )
        best, _ = oracle_subset_max(intervals)
        if not ok or abs(total - best) > 1e-9:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    passed = mismatches == 0 and elapsed < 10.0
    record_criterion(
        1,
        passed,
        f"{cases} interval instances vs subset sweep, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. joint decoding vs exhaustive labeling, plus forced ties


def _small_instance(rng, with_bias: bool):
    n_e = int(rng.integers(1, 4))
    n_r = int(rng.integers(1, 4))
    inventory = make_inventory(n_e, n_r)
    n_spans = int(rng.integers(2, 7))
    n_pairs = int(rng.integers(1, min(7, n_spans * (n_spans - 1) + 1)))
    inst = random_instance(
        rng,
        length=int(rng.integers(6, 11)),
        max_width=3,
        n_spans=n_spans,
        n_pairs=n_pairs,
        inventory=inventory,
        scale=2.0,
        bias_scale=0.7 if with_bias else 0.0,
    )
    cons = random_constraints(rng, inventory)
    return inst, cons


def test_criterion_2_joint_exact_and_tie_stable():
    rng = make_rng(202)
    cases = 200
    score_bad = tie_bad = 0
    t0 = time.perf_counter()
    for n in range(cases):
        use_bias = bool(n % 2)
        inst, cons = _small_instance(rng, with_bias=use_bias)
        got = joint_decode(inst, cons, use_bias)
        want = oracle_joint(inst, cons, use_bias)
        if (
            abs(got.score - want.score) > 1e-9
            or got.entity_labels != want.entity_labels
            or got.relation_labels != want.relation_labels
        ):
            score_bad += 1
        # quantize to an integer grid so distinct labelings collide
        flat = dataclasses.replace(
            inst,
            entity_logits=np.round(inst.entity_logits),
            relation_logits=np.round(inst.relation_logits),
            bias=None,
        )
        got = joint_decode(flat, cons, use_bias=False)
        want = oracle_joint(flat, cons, use_bias=False)
        if (
            got.entity_labels != want.entity_labels
            or got.relation_labels != want.relation_labels
            or abs(got.score - want.score) > 1e-9
        ):
            tie_bad += 1
    elapsed = time.perf_counter() - t0
    passed = score_bad == 0 and tie_bad == 0 and elapsed < 60.0
    record_criterion(
        2,
        passed,
        f"{cases} joint instances vs labeling sweep, {score_bad} score and "
        f"{tie_bad} tie mismatches, {elapsed:.1f}s",
    )
    assert score_bad == 0
    assert tie_bad == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. relation-first vs the two-stage sweep


def test_criterion_3_relation_first_exact():
    rng = make_rng(303)
    cases = 200
    bad = 0
    for n in range(cases):
        use_bias = bool(n % 2)
        inst, cons = _small_instance(rng, with_bias=use_bias)
        got = relation_first_decode(inst, cons, use_bias)
        want = oracle_relation_first(inst, cons, use_bias)
        if (
            abs(got.score - want.score) > 1e-9
            or got.relation_labels != want.relation_labels
            or got.entity_labels != want.entity_labels
        ):
            bad += 1
    record_criterion(
        3, bad == 0, f"{cases} relation-first instances vs two-stage sweep, {bad} mismatches"
    )
    assert bad == 0


# ---------------------------------------------------------------------------
# 4. fuzzed decodes never violate the bundled constraint files


def test_criterion_4_fuzz_zero_violations():
    decodes = 10_000
    algorithms = ("entity_first", "joint", "relation_first")
    violations = 0
    counts = {}
    for seed, name in ((404, "conll04"), (405, "ace05")):
        cons = load_constraint_set(name)
        rng = make_rng(seed)
        done = 0
        for i in range(decodes):
            n_spans = int(rng.integers(2, 6))
            n_pairs = int(rng.integers(1, min(5, n_spans * (n_spans - 1) + 1)))
            inst = random_instance(
                rng,
                length=10,
                max_width=3,
                n_spans=n_spans,
                n_pairs=n_pairs,
                inventory=cons.inventory,
                scale=2.0,
                bias_scale=0.5,
            )
            st = decode(inst, algorithms[i % 3], cons)
            violations += len(check_constraints(st, cons, inst))
            done += 1
        counts[name] = done
    passed = violations == 0 and all(v == decodes for v in counts.values())
    record_criterion(
        4,
        passed,
        f"{decodes} decodes per bundled file round-robin over "
        f"{len(algorithms)} constrained algorithms, {violations} violations",
    )
    assert violations == 0


# ---------------------------------------------------------------------------
# 5. bundled tables match the published ones, row for row

# transcribed by hand from the published tables, independent of the
# packaged data files
CONLL04_TABLE = {
    ("Peop", "Org"): {"Work_For"},
    ("Peop", "Loc"): {"Live_in"},
    ("Org", "Loc"): {"OrgBased_in"},
    ("Loc", "Loc"): {"Located_in"},
    ("Peop", "Peop"): {"Kill"},
}

ACE05_TABLE = {
    ("PER", "FAC"): {"ART", "PHYS"},
    ("PER", "LOC"): {"PHYS", "GEN-AFF"},
    ("PER", "GPE"): {"PHYS", "ORG-AFF", "GEN-AFF"},
    ("PER", "PER"): {"PER-SOC", "GEN-AFF"},
    ("PER", "ORG"): {"ORG-AFF", "GEN-AFF"},
    ("PER", "WEA"): {"ART"},
    ("PER", "VEH"): {"ART"},
    ("FAC", "FAC"): {"PART-WHOLE", "PHYS"},
    ("FAC", "GPE"): {"PART-WHOLE", "PHYS"},
    ("FAC", "LOC"): {"PART-WHOLE", "PHYS"},
    ("GPE", "FAC"): {"PART-WHOLE", "PHYS", "ART"},
    ("GPE", "GPE"): {"PART-WHOLE", "PHYS", "ORG-AFF"},
    ("GPE", "LOC"): {"PART-WHOLE", "PHYS"},
    ("GPE", "ORG"): {"ORG-AFF"},
    ("GPE", "WEA"): {"ART"},
    ("GPE", "VEH"): {"ART"},
    ("LOC", "FAC"): {"PART-WHOLE", "PHYS"},
    ("LOC", "GPE"): {"PART-WHOLE", "PHYS"},
    ("LOC", "LOC"): {"PART-WHOLE", "PHYS"},
    ("ORG", "ORG"): {"PART-WHOLE", "ORG-AFF"},
    ("ORG", "GPE"): {"PART-WHOLE", "ORG-AFF", "GEN-AFF"},
    ("ORG", "WEA"): {"ART"},
    ("ORG", "VEH"): {"ART"},
    ("ORG", "FAC"): {"ART"},
    ("ORG", "LOC"): {"GEN-AFF"},
    ("VEH", "VEH"): {"PART-WHOLE"},
    ("WEA", "WEA"): {"PART-WHOLE"},
}


def test_criterion_5_table_parity():
    conll = load_constraint_set("conll04")
    ace = load_constraint_set("ace05")
    conll_loaded = {k: set(v) for k, v in conll.allowed_pairs.items()}
    ace_loaded = {k: set(v) for k, v in ace.allowed_pairs.items()}
    conll_triples = sum(len(v) for v in conll_loaded.values())
    ace_triples = sum(len(v) for v in ace_loaded.values())
    passed = (
        conll_loaded == CONLL04_TABLE
        and conll_triples == 5
        and ace_loaded == ACE05_TABLE
        and len(ace_loaded) == 27
        and ace_triples == 47
        and conll.closed_world
        and ace.closed_world
    )
    record_criterion(
        5,
        passed,
        f"conll04 {conll_triples} triples, ace05 {len(ace_loaded)} rows / "
        f"{ace_triples} triples, both tables matched",
    )
    assert conll_loaded == CONLL04_TABLE
    assert conll_triples == 5
    assert ace_loaded == ACE05_TABLE
    assert len(ace_loaded) == 27 and ace_triples == 47
    assert conll.closed_world and ace.closed_world


# ---------------------------------------------------------------------------
# 6. top-k selection vs a stable sort


def _oracle_top_k(scores: np.ndarray, k: int) -> tuple[int, ...]:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    valid = [i for i in order if scores[i] > NEG_SENTINEL]
    return tuple(sorted(valid[:k]))


def test_criterion_6_top_k_vs_stable_sort():
    rng = make_rng(606)
    cases = 1000
    mismatches = 0
    starved = 0
    for n in range(cases):
        size = int(rng.integers(1, 41))
        scores = rng.normal(0.0, 2.0, size)
        if n % 2:
            scores = np.round(scores * 2.0) / 2.0  # force ties
        invalid = rng.random(size) < 0.25
        scores[invalid] = NEG_SENTINEL
        k = int(rng.integers(1, size + 3))
        z = rng.normal(0.0, 1.0, (size, 3))
        kept = top_k_select(z, scores, k).kept_indices
        if kept != _oracle_top_k(scores, k):
            mismatches += 1
        if any(invalid[i] for i in kept):
            mismatches += 1
        if not kept and (~invalid).any():
            starved += 1  # valid candidates remained but none selected
    passed = mismatches == 0 and starved == 0
    record_criterion(
        6,
        passed,
        f"{cases} vectors with ties and masked entries vs stable sort, "
        f"{mismatches} mismatches, {starved} starved",
    )
    assert mismatches == 0
    assert starved == 0


# ---------------------------------------------------------------------------
# 7. losses: analytic gradient, softmax rows, margin property


def test_criterion_7_loss_properties():
    rng = make_rng(707)
    grad_bad = 0
    worst = 0.0
    for _ in range(100):
        row = rng.normal(0.0, 2.0, 8)
        label = int(rng.integers(0, 8))
        labels = np.array([label])
        fd = finite_difference_gradient(
            lambda th: classification_loss(th.reshape(1, 8), labels), row
        )
        analytic = softmax(row)
        analytic[label] -= 1.0
        gap = float(np.max(np.abs(fd - analytic)))
        worst = max(worst, gap)
        if gap > 1e-4:
            grad_bad += 1
    sums_bad = 0
    for _ in range(100):
        rows = rng.normal(0.0, 5.0, (int(rng.integers(1, 9)), 8))
        sums = softmax_rows(rows).sum(axis=1)
        if float(np.max(np.abs(sums - 1.0))) > 1e-6:
            sums_bad += 1
    margin_bad = 0
    for _ in range(1000):
        size = int(rng.integers(1, 9))
        scores = rng.normal(0.0, 2.0, size)
        keep = rng.random(size) < 0.5
        if rng.random() < 0.3:
            scores = np.where(keep, scores + 5.0, scores)  # satisfy the margin
        loss = ranking_loss(scores, keep, alpha=1.0)
        holds = all(
            scores[n] - scores[p] + 1.0 <= 0.0
            for p in np.flatnonzero(keep)
            for n in np.flatnonzero(~keep)
        )
        if (loss == 0.0) != holds:
            margin_bad += 1
    passed = grad_bad == 0 and sums_bad == 0 and margin_bad == 0
    record_criterion(
        7,
        passed,
        f"gradient gap max {worst:.2e} over 100 rows, {sums_bad} bad softmax "
        f"rows, {margin_bad} margin mismatches over 1000 labelings",
    )
    assert grad_bad == 0
    assert sums_bad == 0
    assert margin_bad == 0


# ---------------------------------------------------------------------------
# 8. benchmark ordering assertion


def test_criterion_8_bench_ordering():
    proc = _run_cli("bench", "--seed", "0", "--assert-ordering")
    rates = {}
    for line in proc.stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 4:
            rates[parts[0]] = float(parts[3])
    ratio = (
        rates["entity_first"] / rates["joint"]
        if "entity_first" in rates and "joint" in rates and rates.get("joint")
        else 0.0
    )
    passed = proc.returncode == 0 and ratio >= 3.0
    record_criterion(
        8,
        passed,
        f"100 synthetic length-20 sentences, entity-first/joint throughput "
        f"ratio {ratio:.0f}x, exit {proc.returncode}",
    )
    assert proc.returncode == 0, proc.stderr
    assert ratio >= 3.0


# ---------------------------------------------------------------------------
# 9. end-to-end determinism across runs


def test_criterion_9_pipeline_determinism(tmp_path):
    sentences = str(FIXTURES / "sentences.json")
    params = str(FIXTURES / "params.json")
    codes = []

    def score(tag: str) -> bytes:
        out = str(tmp_path / f"score_{tag}.json")
        proc = _run_cli("score", sentences, params, "-o", out)
        codes.append(proc.returncode)
        return Path(out).read_bytes()

    def dec(tag: str) -> bytes:
        out = str(tmp_path / f"struct_{tag}.json")
        proc = _run_cli(
            "decode", str(tmp_path / f"score_{tag}.json"), "-o", out,
            "--algorithm", "joint", "--constraints", "conll04",
        )
        codes.append(proc.returncode)
        return Path(out).read_bytes()

    s1 = score("a")
    s2 = score("b")
    d1 = dec("a")
    d2 = dec("b")
    outs = []
    for tag in ("a", "b"):
        proc = _run_cli(
            "verify", str(tmp_path / f"struct_{tag}.json"),
            str(tmp_path / f"score_{tag}.json"),
        )
        codes.append(proc.returncode)
        outs.append(proc.stdout)
    stable = s1 == s2 and d1 == d2 and outs[0] == outs[1]
    passed = stable and all(c == 0 for c in codes) and "ok: no violations" in outs[0]
    record_criterion(
        9,
        passed,
        "score/decode/verify byte-identical across two runs, "
        f"exit codes {sorted(set(codes))}",
    )
    assert s1 == s2
    assert d1 == d2
    assert outs[0] == outs[1] and "ok: no violations" in outs[0]
    assert all(c == 0 for c in codes)
