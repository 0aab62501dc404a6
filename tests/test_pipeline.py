"""Forward-pass checks: determinism, pruning limits, config handling."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from spanrel import (
    RunConfig,
    default_k_span,
    forward,
    forward_stacks,
    init_params,
    valid_span_count,
)
from spanrel.pipeline import normalize_algorithm

from conftest import make_inventory


@pytest.fixture(scope="module")
def small_params():
    return init_params(make_inventory(3, 2), dim=16, heads=2, max_span_width=4, seed=2)


TOKENS = ("rosa", "joined", "the", "harbor", "authority", "board")


def test_forward_is_deterministic(small_params):
    a = forward(TOKENS, small_params)
    b = forward(TOKENS, small_params)
    assert np.array_equal(a.instance.entity_logits, b.instance.entity_logits)
    assert np.array_equal(a.instance.relation_logits, b.instance.relation_logits)
    assert a.instance.spans == b.instance.spans
    assert a.instance.pairs == b.instance.pairs


def test_forward_seed_changes_scores(small_params):
    a = forward(TOKENS, small_params, RunConfig(seed=0))
    b = forward(TOKENS, small_params, RunConfig(seed=1))
    assert not np.array_equal(a.instance.entity_logits, b.instance.entity_logits)


def test_forward_shapes(small_params):
    r = forward(TOKENS, small_params)
    inst = r.instance
    length = len(TOKENS)
    assert inst.length == length
    k = default_k_span(length, small_params.max_span_width)
    assert len(inst.spans) == k
    assert inst.entity_logits.shape == (k, 4)
    assert len(inst.pairs) <= k
    assert inst.relation_logits.shape == (len(inst.pairs), 3)
    # full grid sizes retained for diagnostics
    assert r.span_filter.ranking_scores.shape == (length * small_params.max_span_width,)
    assert r.pair_filter.ranking_scores.shape == (k * k,)
    assert inst.tokens == TOKENS


def test_forward_pairs_reference_kept_spans(small_params):
    r = forward(TOKENS, small_params)
    k = len(r.instance.spans)
    for h, t in r.instance.pairs:
        assert 0 <= h < k and 0 <= t < k
        assert h != t
    # kept spans are valid in-sentence intervals
    for start, end in r.instance.spans:
        assert 0 <= start <= end < r.instance.length


def test_forward_k_override(small_params):
    r = forward(TOKENS, small_params, RunConfig(k_span=3, k_rel=2))
    assert len(r.instance.spans) == 3
    assert len(r.instance.pairs) == 2


def test_forward_single_token(small_params):
    r = forward(("hello",), small_params)
    assert r.instance.spans == ((0, 0),)
    assert r.instance.pairs == ()
    assert r.instance.relation_logits.shape == (0, 3)
    assert r.pair_filter.read_attention is None


def test_forward_depth_changes_representations(small_params):
    a = forward(TOKENS, small_params, RunConfig(depth=1))
    b = forward(TOKENS, small_params, RunConfig(depth=2))
    assert a.instance.spans == b.instance.spans
    assert not np.array_equal(a.instance.entity_logits, b.instance.entity_logits)


def test_forward_rejects_bad_tokens(small_params):
    with pytest.raises(ValueError):
        forward((), small_params)
    with pytest.raises(ValueError):
        forward(("ok", ""), small_params)


def test_default_k_span():
    assert default_k_span(4, 3) == min(valid_span_count(4, 3), 8)
    assert default_k_span(20, 3) == min(valid_span_count(20, 3), 20)
    assert default_k_span(2, 1) == 2


def test_normalize_algorithm():
    assert normalize_algorithm("entity-first") == "entity_first"
    assert normalize_algorithm("joint") == "joint"
    with pytest.raises(ValueError):
        normalize_algorithm("fastest")


def test_run_config_validation():
    cfg = RunConfig(algorithm="relation-first", k_span=4)
    assert cfg.algorithm == "relation_first"
    assert dataclasses.replace(cfg, seed=5).seed == 5
    with pytest.raises(ValueError):
        RunConfig(k_span=0)
    with pytest.raises(ValueError):
        RunConfig(depth=0)
    with pytest.raises(ValueError):
        RunConfig(seed=-1)
    with pytest.raises(ValueError):
        RunConfig(budget=0)


def test_forward_without_a_config_builds_none(small_params, monkeypatch):
    """forward and forward_stacks with no config use one default RunConfig,
    built at import, and score as an explicit RunConfig() does."""
    want = forward(TOKENS, small_params, RunConfig())
    built = []
    original = RunConfig.__post_init__
    monkeypatch.setattr(RunConfig, "__post_init__", lambda self: built.append(self) or original(self))
    got = forward(TOKENS, small_params)
    list(forward_stacks([TOKENS, TOKENS[:3]], small_params))
    assert built == []
    assert got.instance.entity_logits.tobytes() == want.instance.entity_logits.tobytes()
    assert got.instance.relation_logits.tobytes() == want.instance.relation_logits.tobytes()


def test_traced_names_resolve():
    """Every (module, attribute) that perfbench/spantrace.py wraps is a
    callable of the package, so removing or renaming one cannot silently
    drop it from the per-layer report.  WRAPPED is read as a literal;
    perfbench is not imported."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"
    if not path.is_file():
        pytest.skip("perfbench/spantrace.py is absent")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    ]
    assert wrapped
    for module_name, attr, _ in wrapped:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_benchmark_selftest_passes():
    """perfbench/selftest.py passes: the benchmark's correctness gates
    still trip on bad output when they wrap the package's functions (for
    cli-short, spanrel.cli.decode called once per sentence), and every
    metric BENCHMARK.json names is still emitted."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"
    if not path.is_file():
        pytest.skip("perfbench/selftest.py is absent")
    done = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]


def test_tracer_counts_valid_and_kept_candidates(small_params):
    """perfbench/spantrace.py, installed around one forward, reads the
    valid mask that forward passes to filter_and_refine by keyword: its
    counts are the valid spans, the K(K-1) off-diagonal pairs and the kept
    candidates of each level."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"
    if not path.is_file():
        pytest.skip("perfbench/spantrace.py is absent")
    spec = importlib.util.spec_from_file_location("spantrace", path)
    spantrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spantrace)
    pipeline = importlib.import_module("spanrel.pipeline")
    tracer = spantrace.Tracer()
    with tracer.installed():
        result = pipeline.forward(TOKENS, small_params)
    counts = tracer.counters
    k = len(result.instance.spans)
    assert counts["filter_refine.span.valid"] == valid_span_count(
        len(TOKENS), small_params.max_span_width
    )
    assert counts["filter_refine.pair.valid"] == k * (k - 1)
    assert counts["filter_refine.span.kept"] == len(result.span_filter.kept_indices)
    assert counts["filter_refine.pair.kept"] == len(result.pair_filter.kept_indices)


# ---------------------------------------------------------------------------
# stacks of equal-length sentences


def _arrays(result):
    """Every array a ForwardResult holds, by name."""
    out = {
        "entity_logits": result.instance.entity_logits,
        "relation_logits": result.instance.relation_logits,
    }
    for level, fr in (("span", result.span_filter), ("pair", result.pair_filter)):
        out[f"{level}.representations"] = fr.representations
        out[f"{level}.ranking_scores"] = fr.ranking_scores
        if fr.read_attention is not None:
            out[f"{level}.read_attention"] = fr.read_attention
    return out


def _assert_same(got, want, where):
    assert got.instance.spans == want.instance.spans, where
    assert got.instance.pairs == want.instance.pairs, where
    assert got.instance.tokens == want.instance.tokens, where
    assert got.span_filter.kept_indices == want.span_filter.kept_indices, where
    assert got.pair_filter.kept_indices == want.pair_filter.kept_indices, where
    a, b = _arrays(got), _arrays(want)
    assert a.keys() == b.keys(), where
    for name in a:
        assert a[name].shape == b[name].shape, f"{where} {name}"
        assert a[name].tobytes() == b[name].tobytes(), f"{where} {name}"


FIVES_PER_STACK = 8  # the stack size at length 5 under a small_budget


@pytest.fixture
def small_budget(small_params, monkeypatch):
    """A cell budget that stacks FIVES_PER_STACK sentences of length 5 at
    small_params' dim 16 (the default stacks 409), so that length 5 of
    _mixed_sentences fills more than one stack."""
    monkeypatch.setattr(pipeline, "STACK_CELLS", FIVES_PER_STACK * 5 * small_params.dim)


def _mixed_sentences(seed: int) -> list[tuple[str, ...]]:
    """Shuffled sentences of lengths 1 (no pairs), 2-3 (under the width
    limit 4), 4 and 6-9 (over it), with a length that fills more than one
    stack under a small_budget, and sentences of one repeated token, whose
    equal spans tie."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(12)]
    lengths = [1, 1, 2, 3, 3, 4, 6, 7, 9, 9] + [5] * (FIVES_PER_STACK + 3)
    sentences = [tuple(vocab[i] for i in rng.integers(0, len(vocab), n)) for n in lengths]
    sentences += [("the",) * 5, ("the",) * 7, ("a", "b") * 3]
    return [sentences[i] for i in rng.permutation(len(sentences))]


pipeline = importlib.import_module("spanrel.pipeline")


def _in_order(sentences, params, config=None):
    """forward_stacks' results ordered by input position, one per sentence."""
    results = dict(forward_stacks(sentences, params, config))
    assert sorted(results) == list(range(len(sentences)))
    return [results[pos] for pos in range(len(sentences))]


STACK_CONFIGS = {
    "default": RunConfig(),
    "depth2": RunConfig(depth=2),
    "k-overrides": RunConfig(k_span=3, k_rel=5),
}


@pytest.mark.usefixtures("small_budget")
@pytest.mark.parametrize("config", STACK_CONFIGS.values(), ids=STACK_CONFIGS.keys())
def test_forward_batch_matches_forward_one_sentence_at_a_time(small_params, config):
    """Stacks of equal lengths score every sentence bit for bit as forward
    alone does, each handed back once under its input position."""
    sentences = _mixed_sentences(4)
    got = _in_order(sentences, small_params, config)
    for pos, (tokens, result) in enumerate(zip(sentences, got)):
        _assert_same(result, forward(tokens, small_params, config), f"sentence {pos}")


@pytest.mark.usefixtures("small_budget")
@pytest.mark.parametrize("level", ["span_filter", "relation_filter"])
def test_a_stack_whose_kept_counts_differ_matches_forward(small_params, level):
    """Finite but huge ranking weights make NaN scores, which drop out of
    top-k, so sentences of one length keep different numbers of spans (or
    pairs); such a stack still scores as one sentence at a time.  A
    sentence that keeps no span fails alone, and fails its stack alike."""
    ffn = getattr(small_params, level)
    params = dataclasses.replace(small_params, **{level: dataclasses.replace(ffn, w1=ffn.w1 * 1e150)})
    sentences, alone = [], []
    for tokens in _mixed_sentences(5):
        try:
            alone.append(forward(tokens, params))
            sentences.append(tokens)
        except ValueError as exc:
            assert str(exc) == "need at least one span representation"
            with pytest.raises(ValueError, match=str(exc)):
                list(forward_stacks([tokens, *sentences], params))
    got = _in_order(sentences, params)
    kept = {}
    for pos, (tokens, result) in enumerate(zip(sentences, got)):
        _assert_same(result, alone[pos], f"sentence {pos}")
        fr = result.span_filter if level == "span_filter" else result.pair_filter
        kept.setdefault(len(tokens), set()).add(len(fr.kept_indices))
    assert any(len(counts) > 1 for counts in kept.values()), "no ragged stack"


@pytest.mark.usefixtures("small_budget")
def test_forward_batch_results_share_no_memory(small_params):
    got = _in_order(_mixed_sentences(6), small_params, RunConfig(depth=2))
    arrays = [(pos, a) for pos, result in enumerate(got) for a in _arrays(result).values()]
    for i, (pos, a) in enumerate(arrays):
        for other, b in arrays[i + 1 :]:
            if other != pos:
                assert not np.shares_memory(a, b), (pos, other)


def test_forward_batch_checks_every_sentence(small_params):
    with pytest.raises(ValueError, match="non-empty strings"):
        next(forward_stacks([("ok",), ("fine", "")], small_params))
    assert list(forward_stacks([], small_params)) == []


def test_forward_stacks_scores_equal_lengths_together_shortest_first(small_params, monkeypatch):
    """Each length is split into as few stacks as its cap allows, sizes
    differing by at most one: by default one stack per length here, and
    under a budget of 512 cells at dim 16, stacks of 5, 6 and 6 sentences
    of length 4 and one sentence per stack of length 20."""
    sentences = [("a",) * n for n in [3, 1, 3, 2] + [4] * 17 + [20] * 2]
    seen, score = [], pipeline._forward_stack
    monkeypatch.setattr(
        pipeline, "_forward_stack", lambda stack, *rest: seen.append(stack) or score(stack, *rest)
    )
    expected = {
        pipeline.STACK_CELLS: {1: [1], 2: [1], 3: [2], 4: [17], 20: [2]},
        512: {1: [1], 2: [1], 3: [2], 4: [5, 6, 6], 20: [1, 1]},
    }
    for budget, want in expected.items():
        monkeypatch.setattr(pipeline, "STACK_CELLS", budget)
        seen.clear()
        positions = [pos for pos, _ in pipeline.forward_stacks(sentences, small_params)]
        assert sorted(positions) == list(range(len(sentences)))
        assert positions[:2] == [1, 3] and sorted(positions[2:4]) == [0, 2]
        assert all(len(set(map(len, stack))) == 1 for stack in seen)
        sizes = {}
        for stack in seen:  # shortest first
            sizes.setdefault(len(stack[0]), []).append(len(stack))
        assert list(sizes) == sorted(sizes) and sizes == want, budget
        for length, got in sizes.items():
            cap = max(1, budget // (length * max(length, small_params.dim)))
            total = sum(len(s) == length for s in sentences)
            assert max(got) <= cap and max(got) - min(got) <= 1, (budget, length)
            assert len(got) == -(-total // cap), (budget, length)


def test_forward_stacks_keeps_no_result_it_handed_out(small_params):
    """score packs each result as it comes: once the caller drops one,
    nothing else holds it, even before its stack is done."""
    sentences = [("a", "b", "c")] * 3 + [("a",)] * 2
    for pos, result in pipeline.forward_stacks(sentences, small_params):
        ref = weakref.ref(result)
        del result
        assert ref() is None, pos
