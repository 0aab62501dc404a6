"""validate_document against full jsonschema on mutated documents.

validate_document accepts a document that passes the bulk check of its
schema's root; any other gets one walk of its schema, in which the items
of the big leaf arrays are checked in bulk.  Each mutation below must be
accepted or rejected exactly as Draft202012Validator over the whole
document does, with the same location and message.  The two rules the
formats add beyond the schemas (finite numbers, no 1.0 in integer slots)
are the only expected differences: they are checked separately, and a
strict jsonschema walk that adds them is the oracle of the rest.
"""

from __future__ import annotations

import copy
import json
import math
import random
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spanrel.cli as cli
import spanrel.formats as formats
from spanrel import ConstraintSet, FormatError, decode, load_gold, load_score_file
from spanrel.formats import (
    SCHEMA_NAMES,
    instances_from_score_doc,
    load_schema,
    structure_document,
    validate_document,
)
from spanrel.pipeline import SHOWN_MAX

FIXTURES = Path(__file__).parent / "fixtures"


def _load(name: str) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def _structure_doc() -> dict:
    _, instances = load_score_file(str(FIXTURES / "golden_score.json"))
    task = ConstraintSet(instances[0].inventory)
    structures = [decode(inst, "entity_first", task) for inst in instances]
    doc = structure_document(instances, structures, "entity_first", True)
    return json.loads(json.dumps(doc))


def _bundled_constraints(name: str) -> dict:
    data = resources.files("spanrel").joinpath("data", f"{name}_constraints.json")
    return json.loads(data.read_text(encoding="utf-8"))


GOLD = {
    "sentences": [
        {"entities": [[0, 1, "Peop"], [3, 3, "Org"]], "relations": [[[0, 1], [3, 3], "Work_For"]]},
        {"entities": [], "relations": []},
    ]
}

DOCS = {
    "score": _load("golden_score.json"),
    # 300 sentences, as many as the cli-short benchmark scores
    "score-300": dict(
        _load("golden_score.json"),
        sentences=[copy.deepcopy(s) for s in _load("golden_score.json")["sentences"] * 75],
    ),
    "params": _load("params.json"),
    "structure": _structure_doc(),
    "sentences": _load("sentences.json"),
    "gold": GOLD,
    "constraints": _bundled_constraints("conll04"),
    "constraints-ace05": _bundled_constraints("ace05"),
}

RELATION = {"head": 0, "tail": 1, "type": "Work_For", "score": 0.5}


def _parent(doc, path: str):
    *head, last = [int(p) if p.lstrip("-").isdigit() else p for p in path.split("/")]
    for step in head:
        doc = doc[step]
    return doc, last


def put(path: str, value):
    def mutate(doc):
        parent, last = _parent(doc, path)
        parent[last] = value(parent[last]) if callable(value) else value
    return mutate


def drop(path: str):
    def mutate(doc):
        parent, last = _parent(doc, path)
        del parent[last]
    return mutate


def mutated(source: str, *mutations) -> dict:
    """A mutated copy of DOCS[source]; the source's schema is its name up
    to the first "-"."""
    doc = copy.deepcopy(DOCS[source])
    for mutate in mutations:
        mutate(doc)
    return doc


def plain_outcome(doc, schema: str):
    """What validate_document reported when it ran jsonschema on everything."""
    validator = jsonschema.Draft202012Validator(load_schema(schema))
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
    return f"invalid {schema} document at {where}: {errors[0].message}"


def outcome(doc, schema: str):
    try:
        validate_document(doc, schema)
    except FormatError as exc:
        return str(exc)
    return None


PARITY = {
    # bool, null or a string in a number array
    "score-bool-logit": ("score", [put("sentences/0/entity_logits/0/1", True)]),
    "score-null-logit": ("score", [put("sentences/1/relation_logits/2/3", None)]),
    "score-string-logit": ("score", [put("sentences/2/entity_logits/7/0", "1.5")]),
    "score-bool-ranking": ("score", [put("sentences/3/span_ranking_scores/2", False)]),
    "score-string-bias": ("score", [put("bias/joint/1/2/3", "x")]),
    "params-bool-proj": ("params", [put("span_proj/0/0", True)]),
    "params-null-ffn": ("params", [put("entity_head/w1/3/2", None)]),
    "params-string-bias": ("params", [put("bias/head_tail/0/1", "0.1")]),
    "structure-bool-label": ("structure", [put("sentences/0/relation_labels/1", True)]),
    "structure-null-objective": ("structure", [put("sentences/1/objective", None)]),
    # bool, null or a string in an integer array
    "score-bool-span": ("score", [put("sentences/0/spans/3/1", True)]),
    "score-null-pair": ("score", [put("sentences/1/pairs/0/0", None)]),
    "score-string-kept": ("score", [put("sentences/2/pair_kept/1", "4")]),
    "score-number-token": ("score", [put("sentences/0/tokens/2", 7)]),
    # a nested list where a number belongs
    "score-nested-logit": ("score", [put("sentences/0/relation_logits/0/1", [0.5])]),
    "score-number-for-row": ("score", [put("sentences/1/entity_logits/2", 0.5)]),
    "score-nested-span": ("score", [put("sentences/2/spans/0/0", [0])]),
    "params-nested-attention": ("params", [put("span_read/wq/0/1/0", [1.0, 2.0])]),
    "structure-nested-label": ("structure", [put("sentences/0/entity_labels/0", [1])]),
    # a whole array replaced by a scalar or an object
    "score-logits-not-array": ("score", [put("sentences/0/entity_logits", "oops")]),
    "params-matrix-object": ("params", [put("relation_proj", {"rows": []})]),
    # a ragged row passes the schema; shapes are checked by the loaders
    "score-ragged-logit": ("score", [put("sentences/1/entity_logits/3", lambda r: r[:-1])]),
    "params-ragged-bias": ("params", [put("bias/head_tail/2", lambda r: r + [0.0])]),
    # negative entries in arrays of non-negative integers
    "score-negative-kept": ("score", [put("sentences/3/span_kept/1", -1)]),
    "score-negative-span": ("score", [put("sentences/0/spans/5/0", -2)]),
    "structure-negative-label": ("structure", [put("sentences/2/entity_labels/0", -1)]),
    # pairs and spans must have exactly two entries
    "score-3-element-pair": ("score", [put("sentences/0/pairs/2", lambda p: p + [0])]),
    "score-1-element-span": ("score", [put("sentences/3/spans/1", lambda s: s[:1])]),
    # missing required keys
    "score-missing-pairs": ("score", [drop("sentences/0/pairs")]),
    "score-missing-types": ("score", [drop("relation_types")]),
    "score-missing-bias-table": ("score", [drop("bias/head_tail")]),
    "params-missing-b2": ("params", [drop("entity_head/b2")]),
    "structure-missing-labels": ("structure", [drop("sentences/1/entity_labels")]),
    # several errors at once: the first by location wins
    "score-two-errors": (
        "score",
        [put("sentences/2/length", "5"), put("sentences/1/entity_logits/0/0", None)],
    ),
    "params-two-errors": ("params", [put("dim", 0), put("bias/joint/0/0/0", False)]),
    # untouched documents and empty arrays
    "score-unchanged": ("score", []),
    "params-unchanged": ("params", []),
    "structure-unchanged": ("structure", []),
    "score-empty-sentence": (
        "score",
        [put(f"sentences/0/{k}", []) for k in ("spans", "entity_logits", "pairs", "relation_logits")],
    ),
    # token lists: at least one token, each a non-empty string
    "sentences-unchanged": ("sentences", []),
    "sentences-empty-token-list": ("sentences", [put("sentences/0/tokens", [])]),
    "sentences-empty-token": ("sentences", [put("sentences/1/tokens/2", "")]),
    "sentences-number-token": ("sentences", [put("sentences/0/tokens/1", 5)]),
    "sentences-null-first-token": ("sentences", [put("sentences/3/tokens/0", None)]),
    # structure entity and relation records
    "structure-valid-relation": ("structure", [put("sentences/1/relations", [dict(RELATION)])]),
    "structure-entity-missing-score": ("structure", [drop("sentences/1/entities/1/score")]),
    "structure-entity-string-start": ("structure", [put("sentences/2/entities/0/start", "1")]),
    "structure-entity-negative-end": ("structure", [put("sentences/0/entities/0/end", -1)]),
    "structure-entity-not-object": ("structure", [put("sentences/1/entities/0", [0, 1])]),
    "structure-relation-head-below-minus-one": (
        "structure",
        [put("sentences/1/relations", [dict(RELATION, head=-2)])],
    ),
    "structure-relation-missing-tail": (
        "structure",
        [put("sentences/2/relations", [{k: v for k, v in RELATION.items() if k != "tail"}])],
    ),
    "structure-relation-bool-score": (
        "structure",
        [put("sentences/0/relations", [dict(RELATION, score=True)])],
    ),
    # records in the sentences array
    "score-sentence-is-list": ("score", [put("sentences/1", [0, 1])]),
    "score-last-sentence-missing-kept": ("score", [drop("sentences/3/span_kept")]),
    "score-zero-length": ("score", [put("sentences/2/length", 0)]),
    "score-bool-length": ("score", [put("sentences/0/length", True)]),
    "score-tokens-in-some-allowed": ("score", [drop("sentences/1/tokens"), drop("sentences/3/tokens")]),
    "score-extra-key-allowed": ("score", [put("sentences/2/note", {"any": [None, 1.5]})]),
    "structure-last-entity-missing-score": ("structure", [drop("sentences/3/entities/0/score")]),
    "structure-two-entities-missing-score": (
        "structure",
        [drop("sentences/2/entities/1/score"), drop("sentences/1/entities/0/score")],
    ),
    "sentences-missing-tokens": ("sentences", [drop("sentences/2/tokens")]),
    # gold triples
    "gold-unchanged": ("gold", []),
    "gold-short-relation-triple": ("gold", [put("sentences/0/relations/0", lambda r: r[:2])]),
}


@pytest.mark.parametrize("case", sorted(PARITY))
def test_parity_with_full_jsonschema(case):
    schema, mutations = PARITY[case]
    doc = mutated(schema, *mutations)
    expected = plain_outcome(doc, schema)
    assert outcome(doc, schema) == expected
    if case.endswith(
        ("unchanged", "ragged-logit", "ragged-bias", "empty-sentence", "valid-relation", "allowed")
    ):
        assert expected is None
    else:
        assert expected is not None


STRICTER = {
    # every number is finite
    "score-nan-logit": ("score", "sentences/0/entity_logits/0/1", math.nan),
    "score-inf-ranking": ("score", "sentences/1/pair_ranking_scores/0", math.inf),
    "score-neg-inf-bias": ("score", "bias/joint/0/1/2", -math.inf),
    "score-huge-int-logit": ("score", "sentences/2/relation_logits/1/1", 10**400),
    "score-300-nan-last-ranking": ("score-300", "sentences/299/pair_ranking_scores/5", math.nan),
    "params-nan-proj": ("params", "relation_proj/5/3", math.nan),
    "params-inf-attention": ("params", "relation_read/wo/1/0/2", math.inf),
    "params-nan-bias": ("params", "bias/tail_relation/1/0", math.nan),
    "structure-nan-objective": ("structure", "sentences/0/objective", math.nan),
    "structure-inf-entity-score": ("structure", "sentences/1/entities/0/score", math.inf),
    # integers carry no decimal point
    "score-float-span": ("score", "sentences/0/spans/0/1", 1.0),
    "score-float-kept": ("score", "sentences/1/span_kept/0", 1.0),
    "score-float-length": ("score", "sentences/2/length", 5.0),
    "structure-float-label": ("structure", "sentences/0/entity_labels/0", 0.0),
    "structure-float-entity-start": ("structure", "sentences/2/entities/1/start", 2.0),
}


@pytest.mark.parametrize("case", sorted(STRICTER))
def test_stricter_rules_are_the_only_difference(case):
    source, path, value = STRICTER[case]
    schema = source.split("-")[0]
    doc = mutated(source, put(path, value))
    assert plain_outcome(doc, schema) is None
    got = outcome(doc, schema)
    assert got is not None and got.startswith(f"invalid {schema} document at {path}: ")
    if isinstance(value, float) and value.is_integer():
        assert got.endswith(f"{value!r} is not of type 'integer'")
    else:
        assert got.endswith("is not a finite number")


def test_sentinel_bias_passes():
    """NEG_SENTINEL (-1e30) marks forbidden triples and is finite."""
    doc = mutated("score", put("bias/joint/1/2/3", -1e30))
    validate_document(doc, "score")
    validate_document(mutated("params", put("bias/joint/0/0/0", -1e30)), "params")


def test_gold_numbers_are_finite_integers(tmp_path):
    gold = {"sentences": [{"entities": [[0, 1, "Peop"]], "relations": []}]}
    validate_document(gold, "gold")
    for value, message in ((math.nan, "nan is not a finite number"), (1.0, "1.0 is not of type 'integer'")):
        bad = copy.deepcopy(gold)
        bad["sentences"][0]["entities"][0][1] = value
        path = tmp_path / "gold.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(FormatError) as err:
            load_gold(str(path))
        assert str(err.value) == f"invalid gold document at sentences/0/entities/0/1: {message}"


def test_bias_must_match_the_inventory():
    one_less = mutated(
        "score",
        put("bias/joint", lambda t: [[row[:-1] for row in plane] for plane in t]),
        put("bias/head_relation", lambda t: [row[:-1] for row in t]),
        put("bias/tail_relation", lambda t: [row[:-1] for row in t]),
    )
    validate_document(one_less, "score")
    with pytest.raises(FormatError) as err:
        instances_from_score_doc(one_less)
    assert "(4, 4, 5)" in str(err.value) and "(4, 4, 6)" in str(err.value)
    flat = mutated("score", put("bias/joint", lambda t: t[0]))
    with pytest.raises(FormatError) as err:
        validate_document(flat, "score")
    assert "at bias/joint/0/0: " in str(err.value)


def test_cli_decode_fails_closed_on_every_mutated_score(tmp_path):
    """Each mutated score file either decodes or exits 2, under every
    algorithm; an exception escaping cli.main would be a traceback."""
    cases = {c: muts for c, (schema, muts) in PARITY.items() if schema == "score"}
    cases.update({c: [put(p, v)] for c, (schema, p, v) in STRICTER.items() if schema == "score"})
    path, out = tmp_path / "scores.json", tmp_path / "out.json"
    for case, mutations in sorted(cases.items()):
        doc = mutated("score", *mutations)
        path.write_text(json.dumps(doc))
        rejected = outcome(doc, "score") is not None
        # the ragged row passes the schema and fails the shape check
        expected = {"score-unchanged": 0, "score-ragged-logit": 2}.get(case, 2 if rejected else None)
        for algo in ("unconstrained", "entity-first", "joint", "relation-first"):
            out.unlink(missing_ok=True)
            code = cli.main(["decode", str(path), "-o", str(out), "--algorithm", algo])
            assert code in ((0, 2) if expected is None else (expected,)), (case, algo)
            assert code == 2 or "NaN" not in out.read_text(), (case, algo)


def strict_type(validator, types, instance, schema):
    """The "type" keyword plus two rules of the formats: every number is
    finite as a 64-bit float, and an integer has no decimal point."""
    kind = type(instance)
    types = [types] if isinstance(types, str) else types
    if kind is float or (kind is int and "number" in types):
        try:
            finite = math.isfinite(instance)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            yield jsonschema.ValidationError(f"{instance!r} is not a finite number")
            return
    if kind is float and "integer" in types and "number" not in types:
        yield jsonschema.ValidationError(f"{instance!r} is not of type 'integer'")
        return
    yield from jsonschema.Draft202012Validator.VALIDATORS["type"](validator, types, instance, schema)


# Draft 2020-12 with the strict "type" keyword
StrictValidator = jsonschema.validators.extend(jsonschema.Draft202012Validator, {"type": strict_type})


def formats_message(error, whole: bool) -> str:
    """The jsonschema error's message, but an array or object that heads it
    is named by its JSON type when it is the whole document or its repr is
    long."""
    value = error.instance
    shown = repr(value) if isinstance(value, (list, dict)) else None
    if shown is None or not error.message.startswith(shown):
        return error.message
    if len(shown) <= SHOWN_MAX and not whole:
        return error.message
    kind = "an array" if isinstance(value, list) else "an object"
    return kind + error.message[len(shown):]


def strict_outcome(doc, schema: str, worded: bool = False):
    """What a full strict walk of the whole document reports; worded, its
    message names a long value by type, as formats does."""
    validator = StrictValidator(load_schema(schema))
    errors = [(list(e.absolute_path), e) for e in validator.iter_errors(doc)]
    if not errors:
        return None
    where, error = min(errors, key=lambda e: e[0])
    message = formats_message(error, whole=not where) if worded else error.message
    return f"invalid {schema} document at {'/'.join(map(str, where)) or '<root>'}: {message}"


ODD_VALUES = (True, False, None, "x", [], [1.5], {}, RELATION, math.nan, float("1e400"), 2**70)


def _random_mutation(rng: random.Random, doc: dict) -> None:
    """Delete a key or an item, insert an item, or replace a value, at a
    random place below the root."""
    if not doc:
        return
    parent, key = doc, rng.choice(sorted(doc))
    while isinstance(parent[key], (list, dict)) and parent[key] and rng.random() < 0.8:
        parent = parent[key]
        key = rng.randrange(len(parent)) if type(parent) is list else rng.choice(sorted(parent))
    node = parent[key]
    action = rng.choice(("delete", "insert", "replace", "replace"))
    if action == "delete":
        del parent[key]
    elif action == "insert" and type(node) is list:
        item = rng.choice(node) if node and rng.random() < 0.5 else rng.choice(ODD_VALUES)
        node.insert(rng.randrange(len(node) + 1), copy.deepcopy(item))
    else:
        parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))


KEYWORDS = {
    # "const" and "enum" admit only the listed value, of its own type
    **{
        f"{source}-version-{value!r}": (source, [put("version", value)])
        for source in ("params", "score", "structure")
        for value in (1.0, 2.0, True, 3, "1")
    },
    "structure-unknown-algorithm": ("structure", [put("algorithm", "greedy")]),
    "structure-algorithm-not-string": ("structure", [put("algorithm", ["joint"])]),
    # booleans
    **{
        f"{source}-{key}-{value!r}": (source, [put(key, value)])
        for source, key in (("structure", "use_bias"), ("constraints", "non_overlap"))
        for value in (1, 0, None)
    },
    # type unions with null
    "structure-constraints-null": ("structure", [put("constraints", None)]),
    "structure-constraints-number": ("structure", [put("constraints", 5)]),
    "score-bias-null": ("score", [put("bias", None)]),
    "score-bias-array": ("score", [put("bias", [])]),
    "score-bias-missing-joint": ("score", [drop("bias/joint")]),
    # "additionalProperties": false
    "constraints-extra-root-key": ("constraints", [put("comment", "x")]),
    "constraints-ace05-extra-row-key": ("constraints-ace05", [put("allowed/3/note", 1)]),
}


@pytest.mark.parametrize("case", sorted(KEYWORDS))
def test_keywords_of_the_root_checks_match_a_full_strict_walk(case):
    """const, enum, boolean, null unions and closed records, which the bulk
    check of a document's root reads, keep a full walk's verdict, location
    and message."""
    source, mutations = KEYWORDS[case]
    schema = source.split("-")[0]
    doc = mutated(source, *mutations)
    expected = strict_outcome(doc, schema, worded=True)
    assert outcome(doc, schema) == expected
    # every version is an integer, so 1.0 and 2.0 fail as True does
    assert (expected is None) == case.endswith("-null")


def test_seeded_mutations_match_a_full_strict_walk():
    """Bulk checks plus the walk of the first bad element give the verdict,
    location and message of a full strict walk."""
    rng = random.Random(0)
    rejected = 0
    for trial in range(360):
        schema = ("score", "structure", "sentences")[trial % 3]
        doc = mutated(schema, *[lambda d: _random_mutation(rng, d)] * rng.choice((1, 1, 2, 3)))
        expected = strict_outcome(doc, schema)
        assert outcome(doc, schema) == expected, (trial, expected)
        rejected += expected is not None
    assert 200 < rejected < 340  # both verdicts are exercised


def test_seeded_mutations_of_params_gold_and_constraints_match_a_full_strict_walk():
    """The same for documents whose leaf arrays sit under "$ref"s (params),
    beside records that admit no other keys (constraints), or nowhere
    (gold triples)."""
    rng = random.Random(1)
    sources = ("params", "gold", "constraints", "params", "gold", "constraints-ace05")
    rejected = 0
    for trial in range(300):
        source = sources[trial % len(sources)]
        schema = source.split("-")[0]
        doc = mutated(source, *[lambda d: _random_mutation(rng, d)] * rng.choice((1, 1, 2, 3)))
        expected = strict_outcome(doc, schema, worded=True)
        assert outcome(doc, schema) == expected, (trial, expected)
        rejected += expected is not None
    assert 150 < rejected < 290  # both verdicts are exercised


def _spy_on_the_walk(monkeypatch) -> list:
    """Every value the schema walk of validate_document checks from now on:
    each node it visits passes through formats._own_error once."""
    seen = []
    own_error = formats._own_error

    def spy(value, node):
        seen.append(value)
        return own_error(value, node)

    monkeypatch.setattr(formats, "_own_error", spy)
    return seen


@pytest.mark.parametrize("schema", ["score", "structure", "sentences"])
def test_jsonschema_walks_no_sentence(monkeypatch, schema):
    """A valid document passes the bulk check of its root, so nothing of it
    reaches the JSON Schema walk; sentence records are checked as columns."""
    seen = _spy_on_the_walk(monkeypatch)
    doc = DOCS[schema]
    validate_document(doc, schema)
    keys = set(doc["sentences"][0])
    assert seen == [] and not any(type(x) is dict and keys & set(x) for x in seen)


@pytest.mark.parametrize(
    "schema, key", [("score", "length"), ("structure", "objective"), ("sentences", "tokens")]
)
def test_jsonschema_walks_only_the_bad_sentence(monkeypatch, schema, key):
    """One bad sentence among 200: the JSON Schema walk that words the
    refusal reaches that sentence's record and no other."""
    seen = _spy_on_the_walk(monkeypatch)
    doc = copy.deepcopy(DOCS[schema])
    doc["sentences"] = [copy.deepcopy(s) for s in (doc["sentences"] * 200)[:200]]
    bad = doc["sentences"][137]
    bad[key] = None
    with pytest.raises(FormatError, match=f"at sentences/137/{key}: None is not of type"):
        validate_document(doc, schema)
    keys = set(bad)
    records = [x for x in seen if type(x) is dict and keys & set(x)]
    assert records and all(x is bad for x in records)


def test_jsonschema_walks_no_params_matrix(monkeypatch):
    """Each params matrix is checked as one column; a valid params file
    reaches no JSON Schema walk, so no weight or row of weights does."""
    seen = _spy_on_the_walk(monkeypatch)
    validate_document(DOCS["params"], "params")
    rows, stack = set(), [DOCS["params"]]
    while stack:  # every list that is an item of a list: matrix and tensor rows
        node = stack.pop()
        children = list(node.values() if type(node) is dict else node)
        rows.update(id(x) for x in children if type(node) is list and type(x) is list)
        stack += [x for x in children if type(x) in (dict, list)]
    assert rows and seen == []
    assert not any(type(x) is float or id(x) in rows for x in seen)


def test_one_bad_token_among_many_builds_few_errors(tmp_path, monkeypatch, capsys):
    """Rejecting a long bad token list walks only its first bad token."""
    seen = _spy_on_the_walk(monkeypatch)
    sentences = tmp_path / "sentences.json"
    sentences.write_text(json.dumps({"sentences": [{"tokens": list(range(200_000))}]}))
    argv = ["score", str(sentences), str(FIXTURES / "params.json"), "-o", str(tmp_path / "out.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid sentences document at sentences/0/tokens/0: 0 is not of type 'string'\n"
    tokens = [x for x in seen if type(x) is int]
    assert 1 <= len(tokens) <= 2


def test_an_item_the_walk_accepts_does_not_end_the_search():
    """A numpy.str_ token fails the bulk check, whose types are exact, but
    jsonschema's walk of it finds nothing; the search goes on after it, to
    the token that is wrong."""
    with pytest.raises(FormatError, match="at sentences/0/tokens/1: 5 is not of type 'string'"):
        validate_document({"sentences": [{"tokens": [np.str_("a"), 5]}]}, "sentences")
    validate_document({"sentences": [{"tokens": [np.str_("a"), "b"]}]}, "sentences")


# The keywords formats._own_error and formats._children read, in the order
# the walk checks them; keywords of different JSON types never fail together.
WALK_ORDER = (
    "type", "const", "enum", "required", "additionalProperties", "properties",
    "prefixItems", "minItems", "minLength", "maxItems", "items", "minimum",
)
ANNOTATIONS = {"$schema", "$id", "$defs", "title", "description", "default"}


def _subschemas(node: dict, where: str = "#"):
    """(location, node) of node and of every subschema in it: the values of
    "properties" and "$defs", each "prefixItems" entry, and "items"."""
    yield where, node
    for key in ("properties", "$defs"):
        for name, sub in node.get(key, {}).items():
            yield from _subschemas(sub, f"{where}/{key}/{name}")
    for i, sub in enumerate(node.get("prefixItems", ())):
        yield from _subschemas(sub, f"{where}/prefixItems/{i}")
    if "items" in node:
        yield from _subschemas(node["items"], f"{where}/items")


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_the_bundled_schemas_use_only_what_the_walk_reads(name):
    """The walk that words refusals reads 12 keywords in one fixed order,
    and jsonschema reports a node's errors in the order the node lists its
    keywords.  So every node of a bundled schema holds only those keywords,
    annotations and a local "$ref", and lists its keywords in the walk's
    order; a schema edit the walk cannot honour fails here."""
    schema = load_schema(name)
    for where, node in _subschemas(schema):
        keys = [key for key in node if key not in ANNOTATIONS]
        if "$ref" in keys:
            assert keys == ["$ref"] and node["$ref"].startswith("#/"), where
            target = schema
            for part in node["$ref"][2:].split("/"):
                target = target[part]  # a KeyError names a dangling "$ref"
            continue
        assert set(keys) <= set(WALK_ORDER), (where, sorted(set(keys) - set(WALK_ORDER)))
        assert keys == sorted(keys, key=WALK_ORDER.index), (where, keys)


def test_a_document_of_the_wrong_type_is_named_not_printed(tmp_path, capsys):
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps([DOCS["score"]]))
    assert cli.main(["decode", str(wrapped), "-o", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid score document at <root>: an array is not of type 'object'\n"
    assert len(err) < 200
    # scalars are still shown as they are
    assert outcome(5, "score") == "invalid score document at <root>: 5 is not of type 'object'"
    assert outcome({"sentences": {}}, "sentences") == (
        "invalid sentences document at sentences: {} is not of type 'array'"
    )


@pytest.mark.parametrize(
    "mutation, message",
    [
        (
            put("entity_types", lambda _: copy.deepcopy(DOCS["score"]["sentences"])),
            "entity_types/0: an object is not of type 'string'",
        ),
        (
            put("sentences/0/entity_logits/0/1", [0.5] * 5000),
            "sentences/0/entity_logits/0/1: an array is not of type 'number'",
        ),
    ],
    ids=["sentences-as-types", "long-list-as-number"],
)
def test_a_long_nested_value_is_named_not_printed(tmp_path, capsys, mutation, message):
    path = tmp_path / "scores.json"
    path.write_text(json.dumps(mutated("score", mutation)))
    assert cli.main(["decode", str(path), "-o", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid score document at {message}\n"
    assert len(err.encode()) < 200
