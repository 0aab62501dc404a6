"""End-to-end command-line checks via subprocess.

Covers exit codes (0 ok, 1 violations, 2 bad input, 3 budget), the
golden score and attention files, score-file versions 1 and 2, the memory
`score` holds, the run flags, and the hand-built overlap
fixture whose decodes are small enough to verify by hand arithmetic.
"""

from __future__ import annotations

import csv
import gc
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import spanrel.cli as cli
import spanrel.pipeline as pipeline
from spanrel import (
    ALGORITHMS,
    BudgetExceededError,
    ConstraintSet,
    RunConfig,
    decode,
    forward,
    init_params,
    load_constraint_set,
    load_score_file,
    load_sentences,
    load_structure_file,
    params_from_json,
    params_to_json,
    score_document,
)
from spanrel.formats import read_json, validate_document, write_json

FIXTURES = Path(__file__).parent / "fixtures"
SENTENCES = str(FIXTURES / "sentences.json")
PARAMS = str(FIXTURES / "params.json")
GOLDEN_SCORE = str(FIXTURES / "golden_score.json")
OVERLAP = str(FIXTURES / "overlap_score.json")


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "spanrel.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def assert_json_close(a, b, tol=1e-9, where="$"):
    """Structural equality with a float tolerance, exact everywhere else."""
    if isinstance(a, float) or isinstance(b, float):
        assert a == pytest.approx(b, abs=tol), where
    elif isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), where
        for k in a:
            assert_json_close(a[k], b[k], tol, f"{where}.{k}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_json_close(x, y, tol, f"{where}[{i}]")
    else:
        assert a == b, where


RANKING = ("span_ranking_scores", "pair_ranking_scores")


def as_version_2(doc: dict) -> dict:
    """A version-1 score document as version 2: without ranking vectors."""
    sentences = [{k: v for k, v in s.items() if k not in RANKING} for s in doc["sentences"]]
    return dict(doc, version=2, sentences=sentences)


def test_score_matches_golden(tmp_path):
    """A fresh score file (version 2) matches the version-1 fixture at 1e-9
    on every field it holds, and the fixture's ranking vectors, which
    version 2 leaves out, match forward's at 1e-9."""
    out = str(tmp_path / "scores.json")
    proc = run_cli("score", SENTENCES, PARAMS, "-o", out, "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        fresh = json.load(fh)
    with open(GOLDEN_SCORE) as fh:
        golden = json.load(fh)
    assert (fresh["version"], golden["version"]) == (2, 1)
    assert_json_close(fresh, as_version_2(golden))
    params = params_from_json(read_json(PARAMS))
    sentences = load_sentences(SENTENCES)
    assert len(sentences) == len(golden["sentences"])
    for pos, (tokens, entry) in enumerate(zip(sentences, golden["sentences"])):
        result = forward(tokens, params, RunConfig(seed=0))
        for key, fr in zip(RANKING, (result.span_filter, result.pair_filter)):
            assert_json_close(fr.ranking_scores.tolist(), entry[key], where=f"{pos}.{key}")


def test_score_versions_1_and_2_decode_alike(tmp_path, capsys):
    """The version-1 fixture decodes and verifies as before.  Without its
    ranking vectors, as version 2, it gives byte-identical structure files
    under every algorithm.  A freshly scored version-2 file, whose logits
    differ from the fixture's by a few ulps, gives the same labels and
    verify output, with scores within 1e-9."""
    v2 = tmp_path / "v2.json"
    write_json(str(v2), as_version_2(json.loads(Path(GOLDEN_SCORE).read_text())))
    fresh = tmp_path / "fresh.json"
    assert cli.main(["score", SENTENCES, PARAMS, "-o", str(fresh), "--seed", "0"]) == 0
    for algo in ("unconstrained", "entity-first", "joint", "relation-first"):
        runs = {}
        for name, scores in (("v1", GOLDEN_SCORE), ("v2", str(v2)), ("fresh", str(fresh))):
            out = tmp_path / f"{algo}_{name}.json"
            argv = ["decode", scores, "-o", str(out), "--algorithm", algo, "--constraints", "conll04"]
            assert cli.main(argv) == 0, algo
            code = cli.main(["verify", str(out), scores])
            runs[name] = (out.read_bytes(), code, capsys.readouterr().out)
        assert runs["v1"] == runs["v2"], algo
        assert runs["fresh"][1:] == runs["v1"][1:], algo
        assert_json_close(json.loads(runs["fresh"][0]), json.loads(runs["v1"][0]), where=algo)
        if algo != "unconstrained":
            assert runs["v1"][1:] == (0, "ok: no violations\n"), algo


def test_score_file_of_an_unknown_version_exits_2(tmp_path, capsys):
    doc = json.loads(Path(GOLDEN_SCORE).read_text())
    doc["version"] = 3
    scores = tmp_path / "v3.json"
    scores.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert cli.main(["decode", str(scores), "-o", str(out)]) == 2
    assert "invalid score document at version: 3 is not one of [1, 2]" in capsys.readouterr().err
    assert not out.exists()


def test_score_file_whose_version_has_a_decimal_point_exits_2(tmp_path, capsys):
    """An integer has no decimal point: a version of 2.0 is refused, though
    JSON Schema's enum alone takes it for 2."""
    doc = json.loads(Path(GOLDEN_SCORE).read_text())
    doc["version"] = 2.0
    scores = tmp_path / "v2.0.json"
    scores.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert cli.main(["decode", str(scores), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid score document at version: 2.0 is not of type 'integer'" in err
    assert not out.exists()


def test_score_memory_does_not_grow_with_the_corpus(tmp_path):
    """score packs each sentence as soon as it is scored and drops its
    ForwardResult.  Over 200 sentences of 40-80 tokens the tracemalloc
    peak stays under 30 MB; holding every result to the end took 161 MB."""
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(500)]
    sentences = tmp_path / "sentences.json"
    write_json(str(sentences), {"sentences": [
        {"tokens": [vocab[j] for j in rng.integers(0, len(vocab), n)]}
        for n in rng.integers(40, 81, 200)
    ]})
    params = tmp_path / "params.json"
    inventory = load_constraint_set("conll04").inventory
    write_json(str(params), params_to_json(
        init_params(inventory, dim=64, heads=4, max_span_width=12, seed=0)
    ))
    tracemalloc.start()
    try:
        code = cli.main(["score", str(sentences), str(params), "-o", str(tmp_path / "s.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 30e6, f"peak {peak / 1e6:.1f} MB"


def _mixed_lengths_file(tmp_path) -> tuple[Path, list[list[str]]]:
    """A sentences file of lengths 1-28, 20 of length 6, in shuffled order."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]
    lengths = rng.permutation([1, 2, 3] * 3 + [6] * 20 + list(range(4, 30, 3)))
    sentences = [[vocab[j] for j in rng.integers(0, len(vocab), n)] for n in lengths]
    path = tmp_path / "sentences.json"
    write_json(str(path), {"sentences": [{"tokens": t} for t in sentences]})
    return path, sentences


def test_score_writes_each_sentence_at_its_input_position(tmp_path, monkeypatch):
    """score runs stacks of equal-length sentences, shortest first, yet
    writes the bytes that packing one forward per sentence in input order
    gives, and the same bytes with a cell budget that scores every
    sentence alone."""
    path, sentences = _mixed_lengths_file(tmp_path)
    out = tmp_path / "scores.json"
    args = ["score", str(path), PARAMS, "-o", str(out), "--seed", "3", "--depth", "2"]
    assert cli.main(args) == 0
    params = params_from_json(read_json(PARAMS))
    config = RunConfig(seed=3, depth=2)
    want = tmp_path / "want.json"
    results = enumerate(forward(t, params, config) for t in sentences)
    write_json(str(want), score_document(results, 3))
    assert out.read_bytes() == want.read_bytes()
    monkeypatch.setattr(pipeline, "STACK_CELLS", 1)
    assert cli.main(args) == 0
    assert out.read_bytes() == want.read_bytes()


def test_dump_attention_files_do_not_depend_on_the_stacks(tmp_path, monkeypatch):
    """dump-attention scores in stacks but names its files by input
    position: with every sentence scored alone it writes the same files."""
    path, sentences = _mixed_lengths_file(tmp_path)
    dumps = {}
    for budget in (pipeline.STACK_CELLS, 1):
        monkeypatch.setattr(pipeline, "STACK_CELLS", budget)
        outdir = tmp_path / f"att{budget}"
        assert cli.main(["dump-attention", str(path), PARAMS, "-o", str(outdir)]) == 0
        dumps[budget] = {p.name: p.read_bytes() for p in outdir.iterdir()}
    stacked, alone = dumps.values()
    assert len(stacked) == 4 * len(sentences) and stacked == alone


def test_decode_verify_roundtrip(tmp_path):
    for algo, cons in [
        ("unconstrained", None),
        ("entity-first", "conll04"),
        ("joint", "conll04"),
        ("relation-first", "conll04"),
    ]:
        out = str(tmp_path / f"{algo}.json")
        args = ["decode", GOLDEN_SCORE, "-o", out, "--algorithm", algo]
        if cons:
            args += ["--constraints", cons]
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        doc = load_structure_file(out)
        validate_document(doc, "structure")
        assert doc["algorithm"] == algo
        if cons is None:
            continue  # unconstrained output owes nothing to the checker
        proc = run_cli("verify", out, GOLDEN_SCORE)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ok: no violations" in proc.stdout


@pytest.mark.parametrize(
    "tokens, flags", [(["Paris"], []), (["anna", "met", "lena"], ["--k-span", "1"])]
)
def test_sentence_without_pairs_decodes_and_verifies(tmp_path, tokens, flags):
    """One kept span leaves no pair candidates, so the score file holds
    relation_logits []; it loads as a (0, types) grid and every algorithm
    decodes it and verifies clean."""
    sentences = tmp_path / "sentences.json"
    write_json(str(sentences), {"sentences": [{"tokens": tokens}]})
    scores = str(tmp_path / "scores.json")
    assert cli.main(["score", str(sentences), PARAMS, "-o", scores, *flags]) == 0
    assert json.loads(Path(scores).read_text())["sentences"][0]["relation_logits"] == []
    for algo in ("unconstrained", "entity-first", "joint", "relation-first"):
        out = str(tmp_path / f"{algo}.json")
        argv = ["decode", scores, "-o", out, "--algorithm", algo, "--constraints", "conll04"]
        assert cli.main(argv) == 0, algo
        assert cli.main(["verify", out, scores]) == 0, algo


def test_overlap_fixture_decodes(tmp_path):
    """Hand-checkable fixture: 4 spans, 2 pairs, integer logits.

    Unconstrained keeps both overlapping spans and the forbidden
    Live_in on the (Peop, Org) pair; the constrained algorithms must
    not.  Span gains are 5/3/8/2 and the pair offers Work_For at 1
    against Live_in at 6, so each expected labeling is hand arithmetic.
    """
    cases = {
        "unconstrained": ([1, 1, 2, 3], [2, 0]),
        "entity-first": ([1, 0, 2, 0], [1, 0]),
        "joint": ([1, 0, 2, 0], [1, 0]),
        "relation-first": ([1, 0, 3, 0], [2, 0]),
    }
    for algo, (ents, rels) in cases.items():
        out = str(tmp_path / f"overlap_{algo}.json")
        args = ["decode", OVERLAP, "-o", out, "--algorithm", algo]
        if algo != "unconstrained":
            args += ["--constraints", "conll04"]
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        doc = load_structure_file(out)
        entry = doc["sentences"][0]
        assert entry["entity_labels"] == ents, algo
        assert entry["relation_labels"] == rels, algo
        types = [r["type"] for r in entry["relations"]]
        if algo in ("entity-first", "joint"):
            assert types == ["Work_For"]


def test_verify_flags_unconstrained_output(tmp_path):
    out = str(tmp_path / "raw.json")
    assert (
        run_cli(
            "decode", OVERLAP, "-o", out, "--algorithm", "unconstrained"
        ).returncode
        == 0
    )
    proc = run_cli("verify", out, OVERLAP, "--constraints", "conll04")
    assert proc.returncode == 1
    assert "violation(s)" in proc.stdout
    kinds = [line.split(": ")[1] for line in proc.stdout.splitlines() if "sentence" in line]
    assert "non-overlap" in kinds and "whitelist" in kinds


def test_verify_defaults_to_recorded_constraints(tmp_path):
    # no constraints recorded: verify falls back to task rules, which the
    # unconstrained overlap decode breaks
    raw = str(tmp_path / "raw.json")
    run_cli("decode", OVERLAP, "-o", raw, "--algorithm", "unconstrained")
    proc = run_cli("verify", raw, OVERLAP)
    assert proc.returncode == 1
    assert any("non-overlap" in line for line in proc.stdout.splitlines())
    # recorded bundled name: verify without a flag applies the whitelist
    clean = str(tmp_path / "clean.json")
    run_cli(
        "decode", OVERLAP, "-o", clean, "--algorithm", "joint",
        "--constraints", "conll04",
    )
    assert json.loads(Path(clean).read_text())["constraints"] == "conll04"
    proc = run_cli("verify", clean, OVERLAP)
    assert proc.returncode == 0
    assert "ok: no violations" in proc.stdout


def test_bad_inputs_exit_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli("score", str(broken), PARAMS, "-o", str(tmp_path / "o")).returncode == 2
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"sentences": [{"words": ["a"]}]}))
    proc = run_cli("score", str(bad_schema), PARAMS, "-o", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    # unknown bundled constraint set
    proc = run_cli("decode", OVERLAP, "-o", str(tmp_path / "o"), "--constraints", "nope")
    assert proc.returncode == 2
    # inventory mismatch between score file and constraint file
    proc = run_cli("decode", OVERLAP, "-o", str(tmp_path / "o"), "--constraints", "ace05")
    assert proc.returncode == 2
    assert "inventory" in proc.stderr
    # unknown algorithm
    proc = run_cli("decode", OVERLAP, "-o", str(tmp_path / "o"), "--algorithm", "magic")
    assert proc.returncode == 2
    # missing file
    assert run_cli("verify", str(tmp_path / "ghost.json"), OVERLAP).returncode == 2


@pytest.mark.parametrize("depth", [800, 1000, 100_000])
@pytest.mark.parametrize("role", ["sentences", "scores", "structures", "verified scores"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, role, depth):
    """Nesting too deep for the parser is a bad file, not a crash.  Depth
    800 parses and fails validation; the deeper ones fail while reading."""
    nested = tmp_path / "nested.json"
    nested.write_text("[" * depth + "]" * depth)
    out = str(tmp_path / "out.json")
    if role == "verified scores":
        assert cli.main(["decode", GOLDEN_SCORE, "-o", out]) == 0
    argv = {
        "sentences": ["score", str(nested), PARAMS, "-o", out],
        "scores": ["decode", str(nested), "-o", out],
        "structures": ["verify", str(nested), GOLDEN_SCORE],
        "verified scores": ["verify", out, str(nested)],
    }[role]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if depth > 800:
        assert f"{nested}: JSON nested too deeply" in err


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under the C locale without UTF-8 mode, open() defaults to ASCII."""
    sentences = tmp_path / "s.json"
    sentences.write_text('{"sentences": [{"tokens": ["café", "opens"]}]}', encoding="utf-8")
    out = tmp_path / "scores.json"
    proc = run_cli(
        "score", str(sentences), PARAMS, "-o", str(out),
        env_extra={"LC_ALL": "C", "PYTHONUTF8": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes().isascii()
    _, instances = load_score_file(str(out))
    assert instances[0].tokens == ("café", "opens")


def test_lone_surrogate_token_exits_2_with_its_location(tmp_path, capsys):
    """Only the stdlib reader lets a lone surrogate through; the token is
    refused at load, where its location is known."""
    sentences = tmp_path / "s.json"
    sentences.write_text('{"sentences": [{"tokens": ["ok"]}, {"tokens": ["a\\ud800", "b"]}]}')
    out = tmp_path / "scores.json"
    assert cli.main(["score", str(sentences), PARAMS, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid sentences document at sentences/1/tokens/0: "
        "'a\\ud800' holds a lone surrogate\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("case", ["huge-span-width", "huge-dim"])
def test_out_of_memory_exits_2(tmp_path, case):
    """An allocation the process cannot make is bad input, not a crash.  The
    child runs under a 4 GiB address-space limit, so nothing is allocated."""
    resource = pytest.importorskip("resource")
    limit = (4 << 30, 4 << 30)
    out = str(tmp_path / "o.json")
    if case == "huge-span-width":
        doc = json.loads(Path(PARAMS).read_text())
        doc["max_span_width"] = 10**13
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        argv = ["score", SENTENCES, str(params), "-o", out]
    else:
        argv = ["init-params", "-o", out, "--dim", "1000000", "--heads", "1",
                "--entity-types", "A", "--relation-types", "R"]
    proc = subprocess.run(
        [sys.executable, "-m", "spanrel.cli", *argv],
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not Path(out).exists()


def test_budget_exit_3(tmp_path):
    proc = run_cli(
        "decode", GOLDEN_SCORE, "-o", str(tmp_path / "o.json"),
        "--algorithm", "joint", "--constraints", "conll04", "--budget", "1",
    )
    assert proc.returncode == 3
    assert "error:" in proc.stderr


@pytest.mark.parametrize("algorithm", ["joint", "relation-first"])
def test_decode_of_a_1100_span_sentence_exits_0(tmp_path, algorithm):
    """One search level per span takes the exact decoders past Python's
    default recursion limit; decode still finishes and exits 0."""
    doc = json.loads(Path(GOLDEN_SCORE).read_text())
    n = 1100
    n_ent, n_rel = len(doc["entity_types"]), len(doc["relation_types"])
    # Null leads every row, so the first descent is optimal and the bound
    # prunes everything after it: joint finishes without a budget.
    doc["sentences"] = [
        {
            "length": n,
            "spans": [[i, i] for i in range(n)],
            "entity_logits": [[2.0] + [-1.0 - e for e in range(1, n_ent)]] * n,
            "pairs": [[0, 1]],
            "relation_logits": [[2.0] + [-1.0] * (n_rel - 1)],
            "span_kept": list(range(n)),
            "span_ranking_scores": [0.0] * n,
            "pair_kept": [1],
            "pair_ranking_scores": [0.0] * 4,
        }
    ]
    scores = tmp_path / "long.json"
    scores.write_text(json.dumps(doc))
    out = str(tmp_path / "o.json")
    proc = run_cli("decode", str(scores), "-o", out, "--algorithm", algorithm)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert run_cli("verify", out, str(scores)).returncode == 0


def _nan_logit(doc):
    doc["sentences"][0]["entity_logits"][0][1] = float("nan")


def _float_span(doc):
    doc["sentences"][0]["spans"][0] = [float(i) for i in doc["sentences"][0]["spans"][0]]


def _short_bias(doc):
    # consistent tables for one relation type fewer than the inventory has
    bias = doc["bias"]
    bias["joint"] = [[row[:-1] for row in plane] for plane in bias["joint"]]
    bias["head_relation"] = [row[:-1] for row in bias["head_relation"]]
    bias["tail_relation"] = [row[:-1] for row in bias["tail_relation"]]


CORRUPT_SCORES = {
    "nan-logit": (_nan_logit, "sentences/0/entity_logits/0/1: nan is not a finite number"),
    "float-span": (_float_span, "sentences/0/spans/0/0: 0.0 is not of type 'integer'"),
    "short-bias": (_short_bias, "joint table has shape (4, 4, 5)"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_SCORES))
def test_corrupt_score_file_exits_2_under_every_algorithm(tmp_path, case):
    corrupt, message = CORRUPT_SCORES[case]
    doc = json.loads(Path(GOLDEN_SCORE).read_text())
    corrupt(doc)
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(doc))
    for algo in ("unconstrained", "entity-first", "joint", "relation-first"):
        out = tmp_path / f"{algo}.json"
        proc = run_cli("decode", str(scores), "-o", str(out), "--algorithm", algo)
        assert proc.returncode == 2, (algo, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert not out.exists() or "NaN" not in out.read_text()


def test_overflowing_objective_is_not_written(tmp_path):
    # a finite but huge bias entry sums to an infinite joint objective
    doc = json.loads(Path(GOLDEN_SCORE).read_text())
    doc["bias"]["joint"][1][1][0] = 1e308
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(doc))
    out = tmp_path / "joint.json"
    proc = run_cli("decode", str(scores), "-o", str(out), "--algorithm", "joint")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not written" in proc.stderr
    assert not out.exists()


def _first_failure(instances, algorithm, constraints, budget=None):
    """Position of the first sentence whose decode alone raises, else None."""
    for pos, inst in enumerate(instances):
        try:
            decode(inst, algorithm, constraints, budget=budget)
        except (BudgetExceededError, ValueError):
            return pos
    return None


def test_decode_names_the_first_sentence_that_fails(tmp_path, capsys):
    """An overflowing objective (exit 2) and a search past its budget
    (exit 3) name the first sentence, in file order, whose decode alone
    fails; no structure file is written."""
    doc = json.loads(Path(GOLDEN_SCORE).read_text())
    doc["bias"]["joint"][1][1][0] = 1e308
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(doc))
    instances = load_score_file(str(scores))[1]
    out = tmp_path / "o.json"
    failed = 0
    for algorithm in ALGORITHMS:
        pos = _first_failure(instances, algorithm, ConstraintSet(instances[0].inventory))
        code = cli.main(["decode", str(scores), "-o", str(out), "--algorithm", algorithm])
        err = capsys.readouterr().err
        if pos is None:
            assert code == 0, err
            out.unlink()
            continue
        failed += 1
        assert code == 2
        assert err.startswith(f"error: {out} not written: sentence {pos}: {algorithm} objective")
        assert not out.exists()
    assert failed
    conll04 = load_constraint_set("conll04")
    pos = _first_failure(load_score_file(GOLDEN_SCORE)[1], "joint", conll04, budget=1)
    args = ["decode", GOLDEN_SCORE, "-o", str(out), "--algorithm", "joint"]
    assert cli.main([*args, "--constraints", "conll04", "--budget", "1"]) == 3
    err = capsys.readouterr().err
    assert err == f"error: sentence {pos}: joint search expanded more than 1 nodes\n"
    assert not out.exists()


def test_a_seed_too_long_to_key_the_token_hash_is_named(tmp_path, capsys):
    """The token hash is keyed by the seed's decimal digits, 64 at most: a
    longer seed exits 2 naming the seed, and a 64-digit one scores."""
    out = tmp_path / "s.json"
    assert cli.main(["score", SENTENCES, PARAMS, "-o", str(out), "--seed", str(10**64)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed ") and "64" in err
    assert not out.exists()
    assert cli.main(["score", SENTENCES, PARAMS, "-o", str(out), "--seed", str(10**64 - 1)]) == 0


def test_non_finite_params_exit_2(tmp_path):
    doc = json.loads(Path(PARAMS).read_text())
    doc["entity_head"]["w1"][2][3] = float("inf")
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    proc = run_cli("score", SENTENCES, str(params), "-o", str(tmp_path / "o.json"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "entity_head/w1/2/3: inf is not a finite number" in proc.stderr


def test_decode_records_its_flags(tmp_path):
    """--algorithm and --no-bias set the run, and the structure file
    records them; without them decode runs joint with the bias."""
    out = str(tmp_path / "o.json")
    for flags, algorithm, use_bias in (
        ([], "joint", True),
        (["--algorithm", "entity-first"], "entity-first", True),
        (["--no-bias"], "joint", False),
    ):
        proc = run_cli("decode", OVERLAP, "-o", out, *flags)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(Path(out).read_text())
        assert (doc["algorithm"], doc["use_bias"]) == (algorithm, use_bias)


def test_dump_attention_matches_golden(tmp_path):
    outdir = tmp_path / "att"
    proc = run_cli(
        "dump-attention", SENTENCES, PARAMS, "-o", str(outdir), "--seed", "0"
    )
    assert proc.returncode == 0, proc.stderr
    fresh = sorted(p.name for p in outdir.iterdir())
    golden_dir = FIXTURES / "golden_attention"
    assert fresh == sorted(p.name for p in golden_dir.iterdir())
    for name in fresh:
        with open(outdir / name) as fh:
            rows_a = list(csv.reader(fh))
        with open(golden_dir / name) as fh:
            rows_b = list(csv.reader(fh))
        if name.endswith("_ranking.csv"):
            assert rows_a[0] == ["candidate", "score"]
        else:
            assert rows_a[0] == ["candidate", "head", "token", "weight"]
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            assert ra[:-1] == rb[:-1]
            assert float(ra[-1]) == pytest.approx(float(rb[-1]), abs=1e-9)
    # attention rows are distributions: per candidate and head they sum to 1
    sums: dict[tuple[str, str], float] = defaultdict(float)
    with open(outdir / "sentence_0000_span.csv") as fh:
        for row in csv.DictReader(fh):
            sums[(row["candidate"], row["head"])] += float(row["weight"])
    assert sums
    for total in sums.values():
        assert total == pytest.approx(1.0, abs=1e-5)


def test_golden_ranking_csvs_match_forward():
    """The ranking vectors that version-2 score files leave out stay
    reachable through dump-attention: one row per grid cell, as forward
    ranks them."""
    params = params_from_json(read_json(PARAMS))
    golden_dir = FIXTURES / "golden_attention"
    for pos, tokens in enumerate(load_sentences(SENTENCES)):
        result = forward(tokens, params, RunConfig(seed=0))
        for level, fr in (("span", result.span_filter), ("relation", result.pair_filter)):
            with open(golden_dir / f"sentence_{pos:04d}_{level}_ranking.csv") as fh:
                rows = list(csv.reader(fh))[1:]
            assert [int(r[0]) for r in rows] == list(range(len(fr.ranking_scores)))
            scores = np.array([float(r[1]) for r in rows])
            assert np.allclose(scores, fr.ranking_scores, rtol=0, atol=1e-9), (pos, level)


def test_init_params(tmp_path):
    out = str(tmp_path / "p.json")
    proc = run_cli(
        "init-params", "-o", out, "--entity-types", "A,B",
        "--relation-types", "r", "--dim", "8", "--heads", "2",
        "--max-span-width", "3", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(Path(out).read_text())
    validate_document(doc, "params")
    assert doc["entity_types"] == ["non-entity", "A", "B"]
    assert doc["relation_types"] == ["no-relation", "r"]
    # types straight from a bundled constraint file
    proc = run_cli(
        "init-params", "-o", out, "--constraints", "ace05", "--dim", "8",
        "--heads", "2", "--max-span-width", "3",
    )
    assert proc.returncode == 0
    doc = json.loads(Path(out).read_text())
    assert doc["entity_types"] == list(load_constraint_set("ace05").inventory.entity_types)
    assert run_cli("init-params", "-o", out).returncode == 2


def test_init_params_refuses_zero_heads(tmp_path, capsys):
    """--heads 0 is bad input: exit 2 with the ModelParams message, no
    traceback from dim % heads, no file."""
    out = tmp_path / "p.json"
    code = cli.main(["init-params", "-o", str(out), "--constraints", "conll04", "--heads", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: dim, heads, hidden, and max_span_width must be positive\n"
    assert not out.exists()


def test_bench_runs():
    proc = run_cli("bench", "--count", "2", "--length", "8", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == [
        "algorithm", "sentences", "seconds", "sent/s",
    ]
    assert "entity_first" in proc.stdout and "joint" in proc.stdout


@pytest.mark.parametrize(
    "flags",
    [("--count", "0"), ("--length", "-3"), ("--budget", "0"), ("--length", "1")],
)
def test_bench_refuses_sizes_it_cannot_run(flags):
    """Non-positive sizes, and a length too short for the span draw."""
    proc = run_cli("bench", "--count", "2", *flags)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("config", [{"budget": 0}])
def test_bench_reads_the_config_file(config):
    """bench takes its seed, budget and bias setting through RunConfig,
    built from its flags alone, so a value RunConfig refuses exits 2 as
    for every other run command."""
    flags = [a for key, value in config.items() for a in (f"--{key}", str(value))]
    proc = run_cli("bench", "--count", "2", "--length", "8", *flags)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# per-process work and the cyclic collector


def _fixture_commands(tmp_path) -> dict[str, tuple[list[str], int]]:
    """Each command on the fixtures, by name, with the exit code it gives;
    the first writes the score file the rest read."""
    scores, structures = str(tmp_path / "s.json"), str(tmp_path / "d.json")
    decode = ["decode", scores, "-o", structures, "--constraints", "conll04", "--algorithm"]
    return {
        "score": (["score", SENTENCES, PARAMS, "-o", scores], 0),
        "decode entity-first": ([*decode, "entity-first"], 0),
        "decode joint": ([*decode, "joint"], 0),
        "decode relation-first": ([*decode, "relation-first"], 0),
        "verify": (["verify", structures, scores], 0),
        "dump-attention": (["dump-attention", SENTENCES, PARAMS, "-o", str(tmp_path / "att")], 0),
        "bench conll04": (["bench", "--count", "5", "--length", "12"], 0),
        "bench ace05": (["bench", "--count", "5", "--length", "12", "--constraints", "ace05"], 0),
        "a params file as a score file": (["decode", PARAMS, "-o", structures], 2),
        "decode --budget 1": ([*decode, "joint", "--budget", "1"], 3),
    }


def test_commands_build_the_parser_once_and_make_no_cyclic_garbage(tmp_path, capsys):
    """cli.main parses with one parser per process, and a command, once the
    process has run it before, leaves nothing for the cyclic collector, on
    every exit path.  This is what lets cli.main pause the collector for a
    whole command."""
    commands = _fixture_commands(tmp_path).values()
    for argv, code in commands:
        assert cli.main(argv) == code
    assert cli._parser() is cli._parser()
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv, code in commands:
            assert cli.main(argv) == code
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()


def test_no_collection_runs_inside_a_command(tmp_path, capsys):
    """cli.main runs each command with the cyclic collector paused, so no
    collection walks the documents and instances a command holds, even
    with a threshold that starts one every 50 new containers."""
    commands = _fixture_commands(tmp_path)
    names = ["score", "decode entity-first", "decode joint", "verify", "dump-attention"]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    thresholds = gc.get_threshold()
    gc.set_threshold(50)
    gc.callbacks.append(count)
    try:
        assert gc.isenabled()
        [[] for _ in range(200)]
        assert starts  # the threshold starts collections outside a command
        found = {}
        for name in names:
            argv, code = commands[name]
            gc.collect()  # nothing is due when the command starts
            starts.clear()
            assert cli.main(argv) == code
            found[name] = len(starts)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
    assert found == dict.fromkeys(names, 0)
    capsys.readouterr()


def test_cli_main_restores_the_collector_state_on_every_exit(tmp_path, capsys, collector):
    """After each command the collector is on or off as it was before, when
    the command succeeds, refuses its input (2) or runs out of budget (3)."""
    commands = _fixture_commands(tmp_path)
    for name in ["score", "decode entity-first", "a params file as a score file", "decode --budget 1"]:
        argv, code = commands[name]
        assert cli.main(argv) == code, name
        assert gc.isenabled() is collector, name
    capsys.readouterr()


def test_bundled_constraint_sets_are_read_once_and_files_every_time(tmp_path):
    assert load_constraint_set("conll04") is load_constraint_set("conll04")
    assert load_constraint_set("ace05") is load_constraint_set("ace05")
    path = tmp_path / "c.json"
    doc = {"entity_types": ["A"], "relation_types": ["R"], "non_overlap": True}
    write_json(str(path), doc)
    assert load_constraint_set(str(path)).non_overlap
    write_json(str(path), {**doc, "non_overlap": False})
    assert not load_constraint_set(str(path)).non_overlap


_FULL_COLLECTIONS = (
    "import gc, sys\n"
    "import spanrel.cli as cli\n"
    "before = gc.get_stats()[2]['collections']\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, gc.get_stats()[2]['collections'] - before)\n"
)


def test_a_fresh_decode_of_3000_sentences_runs_no_full_collection(tmp_path):
    """The collector is paused for the whole command, so the containers of
    3,000 parsed sentences never reach the oldest generation."""
    doc = json.loads(Path(GOLDEN_SCORE).read_text())
    doc["sentences"] = doc["sentences"] * 750
    scores = tmp_path / "scores.json"
    write_json(str(scores), doc)
    argv = ["decode", str(scores), "-o", str(tmp_path / "d.json"), "--algorithm", "entity-first"]
    proc = subprocess.run([sys.executable, "-c", _FULL_COLLECTIONS, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


_LOADS_JSONSCHEMA = (
    "import sys\n"
    "import spanrel.cli as cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(code, 'jsonschema' in sys.modules)\n"
)


def _fresh_cli(*argv: str) -> tuple[list[str], str]:
    """The exit code and whether jsonschema was imported, as the last line
    of a fresh interpreter's output, and its standard error."""
    proc = subprocess.run([sys.executable, "-c", _LOADS_JSONSCHEMA, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split(), proc.stderr


def test_fresh_commands_on_valid_files_never_import_jsonschema(tmp_path):
    """Every valid document passes its root's bulk check, so importing the
    CLI and running score, decode and verify leave jsonschema unloaded."""
    scores, structures = str(tmp_path / "s.json"), str(tmp_path / "d.json")
    for argv in (
        [],
        ["score", SENTENCES, PARAMS, "-o", scores],
        ["decode", scores, "-o", structures, "--algorithm", "entity-first",
         "--constraints", "conll04"],
        ["verify", structures, scores],
    ):
        assert _fresh_cli(*argv) == (["0", "False"], ""), argv


_WITHOUT_JSONSCHEMA = (
    "import sys\n"
    "sys.modules['jsonschema'] = None  # import jsonschema now raises ImportError\n"
    "import spanrel.cli as cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def test_fresh_commands_accept_and_refuse_files_without_jsonschema(tmp_path):
    """With jsonschema unimportable, score, decode and verify run on valid
    files, and a refused file of each kind the CLI reads exits 2 with the
    message a strict JSON Schema walk gives it."""
    def run(*argv: str) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_JSONSCHEMA, *argv],
                              capture_output=True, text=True)
        return proc.returncode, proc.stderr

    scores, structures = str(tmp_path / "s.json"), str(tmp_path / "d.json")
    assert run("score", SENTENCES, PARAMS, "-o", scores) == (0, "")
    assert run("decode", scores, "-o", structures, "--algorithm", "entity-first",
               "--constraints", "conll04") == (0, "")
    assert run("verify", structures, scores) == (0, "")

    def bad(name: str, source: str, path: str, value) -> str:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
        *head, last = [int(p) if p.isdigit() else p for p in path.split("/")]
        parent = doc
        for step in head:
            parent = parent[step]
        parent[last] = value
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    conll04 = str(Path(cli.__file__).parent / "data" / "conll04_constraints.json")
    out = str(tmp_path / "out.json")
    refusals = [
        (["score", bad("bad_t.json", SENTENCES, "sentences/2/tokens/1", 5), PARAMS, "-o", out],
         "invalid sentences document at sentences/2/tokens/1: 5 is not of type 'string'"),
        (["score", SENTENCES, bad("bad_p.json", PARAMS, "dim", 0), "-o", out],
         "invalid params document at dim: 0 is less than the minimum of 1"),
        (["decode", bad("bad_s.json", GOLDEN_SCORE, "sentences/1/entity_logits/0/1", math.inf),
          "-o", out],
         "invalid score document at sentences/1/entity_logits/0/1: inf is not a finite number"),
        (["verify", bad("bad_d.json", structures, "sentences/0/entity_labels/0", 1.0), scores],
         "invalid structure document at sentences/0/entity_labels/0: "
         "1.0 is not of type 'integer'"),
        (["decode", scores, "-o", out, "--constraints", bad("bad_c.json", conll04, "comment", "x")],
         "invalid constraints document at <root>: "
         "Additional properties are not allowed ('comment' was unexpected)"),
    ]
    for argv, message in refusals:
        assert run(*argv) == (2, f"error: {message}\n"), argv


def test_the_benchmark_tracer_sees_score_decode_and_verify(tmp_path, capsys):
    """perfbench/spantrace.py, installed around score, decode and verify as
    the cli-short workload runs them, wraps every name it lists and counts
    one entity-first decode per sentence."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"
    if not path.is_file():
        pytest.skip("perfbench/spantrace.py is absent")
    spec = importlib.util.spec_from_file_location("spantrace", path)
    spantrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spantrace)
    scores, structures = str(tmp_path / "s.json"), str(tmp_path / "d.json")
    tracer = spantrace.Tracer()
    with tracer.installed():
        assert cli.main(["score", SENTENCES, PARAMS, "-o", scores]) == 0
        assert cli.main(["decode", scores, "-o", structures, "--algorithm", "entity-first",
                         "--constraints", "conll04"]) == 0
        assert cli.main(["verify", structures, scores]) == 0
    capsys.readouterr()
    rows = tracer.aggregate()
    assert rows["decode.entity_first"]["calls"] == len(load_sentences(SENTENCES))
    # sentences and params, the scores in decode, structures and scores in verify
    assert rows["formats.read_json"]["calls"] == 5
    assert rows["formats.instances_from_score_doc"]["calls"] == 2
    assert rows["decode.check_constraints"]["calls"] == len(load_sentences(SENTENCES))
