"""validate_document against full jsonschema on mutated documents.

validate_document runs jsonschema on a skeleton of the document and checks
the big leaf arrays in bulk.  Each mutation below must be accepted or
rejected exactly as Draft202012Validator over the whole document does, with
the same location and message.  The two rules the formats add beyond the
schemas (finite numbers, no 1.0 in integer slots) are the only expected
differences, and they are checked separately.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import jsonschema
import pytest

import spanrel.cli as cli
from spanrel import ConstraintSet, FormatError, decode, load_gold, load_score_file
from spanrel.formats import (
    instances_from_score_doc,
    load_schema,
    structure_document,
    validate_document,
)

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


GOLD = {
    "sentences": [
        {"entities": [[0, 1, "Peop"], [3, 3, "Org"]], "relations": [[[0, 1], [3, 3], "Work_For"]]},
        {"entities": [], "relations": []},
    ]
}

DOCS = {
    "score": _load("golden_score.json"),
    "params": _load("params.json"),
    "structure": _structure_doc(),
    "sentences": _load("sentences.json"),
    "gold": GOLD,
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


def mutated(schema: str, *mutations) -> dict:
    doc = copy.deepcopy(DOCS[schema])
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
    if case.endswith(("unchanged", "ragged-logit", "ragged-bias", "empty-sentence", "valid-relation")):
        assert expected is None
    else:
        assert expected is not None


STRICTER = {
    # every number is finite
    "score-nan-logit": ("score", "sentences/0/entity_logits/0/1", math.nan),
    "score-inf-ranking": ("score", "sentences/1/pair_ranking_scores/0", math.inf),
    "score-neg-inf-bias": ("score", "bias/joint/0/1/2", -math.inf),
    "score-huge-int-logit": ("score", "sentences/2/relation_logits/1/1", 10**400),
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
    schema, path, value = STRICTER[case]
    doc = mutated(schema, put(path, value))
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
