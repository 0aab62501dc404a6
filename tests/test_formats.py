"""Document checks: schemas, canonical JSON, round trips, bundled tables."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spanrel import (
    ConstraintSet,
    FormatError,
    GoldAnnotation,
    decode,
    forward,
    init_params,
    load_constraint_set,
    load_gold,
    load_score_file,
    load_sentences,
    load_structure_file,
    score_document,
    structure_document,
    structures_from_doc,
)
from spanrel.formats import (
    SCHEMA_NAMES,
    dump_canonical,
    instances_from_score_doc,
    load_schema,
    read_json,
    validate_document,
    write_json,
)

from conftest import make_inventory

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def scored():
    params = init_params(make_inventory(3, 2), dim=16, heads=2, max_span_width=3, seed=6)
    sentences = [("maya", "chairs", "the", "guild"), ("nilo", "sings")]
    return [forward(s, params) for s in sentences]


def test_all_schemas_load():
    for name in SCHEMA_NAMES:
        schema = load_schema(name)
        assert schema.get("type") == "object"
    with pytest.raises(ValueError):
        load_schema("nope")


def test_dump_canonical_is_stable():
    a = dump_canonical({"b": 1, "a": [1, 2]})
    b = dump_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')
    assert dump_canonical({"b": None, "a": [1, 2.5, "é"]}) == '{"a":[1,2.5,"\\u00e9"],"b":null}\n'


def _bits(doc):
    """The document with every float as its float.hex, so == compares bits
    and an int never equals a float."""
    if isinstance(doc, float):
        return ("float", doc.hex())
    if isinstance(doc, dict):
        return {key: _bits(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_bits(value) for value in doc]
    return doc


def _same_instance(a, b):
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "bias":
            for table in ("joint", "head_relation", "tail_relation", "head_tail"):
                assert np.array_equal(getattr(x, table), getattr(y, table)), table
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize("name", ["golden_score.json", "params.json"])
def test_indented_fixtures_reencode_exactly(tmp_path, name):
    """Files written indented by earlier versions still load, and writing
    them again in the compact form keeps every value to the bit."""
    original = read_json(str(FIXTURES / name))
    path = tmp_path / name
    write_json(str(path), original)
    assert path.stat().st_size < (FIXTURES / name).stat().st_size
    again = read_json(str(path))
    assert again == original
    assert _bits(again) == _bits(original)
    if name == "golden_score.json":
        _, before = load_score_file(str(FIXTURES / name))
        _, after = load_score_file(str(path))
        assert len(before) == len(after) > 0
        for a, b in zip(before, after):
            _same_instance(a, b)


def test_write_json_refuses_non_finite(tmp_path):
    p = tmp_path / "x.json"
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(FormatError) as err:
            write_json(str(p), {"objective": value})
        assert "not written" in str(err.value)
        assert not p.exists()


def test_read_json_errors(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{broken")
    with pytest.raises(FormatError):
        read_json(str(p))
    with pytest.raises(OSError):
        read_json(str(tmp_path / "missing.json"))
    p.write_bytes(b'{"tokens": ["caf\xe9"]}')  # Latin-1, not UTF-8
    with pytest.raises(FormatError) as err:
        read_json(str(p))
    assert "not UTF-8" in str(err.value)


def test_sentences_roundtrip(tmp_path):
    p = tmp_path / "s.json"
    write_json(str(p), {"sentences": [{"tokens": ["a", "b"]}, {"tokens": ["c"]}]})
    assert load_sentences(str(p)) == [("a", "b"), ("c",)]
    write_json(str(p), {"sentences": [{"tokens": []}]})
    with pytest.raises(FormatError) as err:
        load_sentences(str(p))
    assert "sentences/0/tokens" in str(err.value)
    write_json(str(p), {"sentences": [{"tokens": ["ok", 3]}]})
    with pytest.raises(FormatError):
        load_sentences(str(p))


def test_score_document_roundtrip(tmp_path, scored):
    doc = score_document(scored, seed=0)
    validate_document(doc, "score")
    path = tmp_path / "scores.json"
    write_json(str(path), doc)
    loaded_doc, instances = load_score_file(str(path))
    assert loaded_doc == json.loads(dump_canonical(doc))
    assert len(instances) == 2
    for rebuilt, result in zip(instances, scored):
        orig = result.instance
        assert rebuilt.length == orig.length
        assert rebuilt.spans == orig.spans
        assert rebuilt.pairs == orig.pairs
        assert rebuilt.tokens == orig.tokens
        assert np.array_equal(rebuilt.entity_logits, orig.entity_logits)
        assert np.array_equal(rebuilt.relation_logits, orig.relation_logits)
        assert rebuilt.inventory == orig.inventory
        assert np.array_equal(rebuilt.bias.combined(), orig.bias.combined())


def test_score_document_packs_any_iterable(scored):
    """A generator packs like a list; version 2 holds no ranking vectors."""
    doc = score_document(iter(scored), seed=0)
    assert doc == score_document(scored, seed=0)
    assert doc["version"] == 2
    for entry, result in zip(doc["sentences"], scored):
        assert "span_ranking_scores" not in entry and "pair_ranking_scores" not in entry
        assert entry["span_kept"] == list(result.span_filter.kept_indices)
        assert entry["pair_kept"] == list(result.pair_filter.kept_indices)
    with pytest.raises(ValueError):
        score_document(iter(()), seed=0)


def test_score_document_rejects_bad_entries(scored):
    doc = score_document(scored, seed=0)
    bad = json.loads(dump_canonical(doc))
    bad["sentences"][0]["spans"][0] = [0, 99]
    validate_document(bad, "score")  # schema cannot see the length bound
    with pytest.raises(FormatError) as err:
        instances_from_score_doc(bad)
    assert "score sentence 0" in str(err.value)
    worse = json.loads(dump_canonical(doc))
    del worse["sentences"][0]["entity_logits"]
    with pytest.raises(FormatError):
        validate_document(worse, "score")


def test_structure_document_roundtrip(tmp_path, scored):
    instances = [r.instance for r in scored]
    # fixture params use generic type names; decode with task rules only
    task = ConstraintSet(instances[0].inventory)
    structures = [decode(inst, "joint", task) for inst in instances]
    doc = structure_document(instances, structures, "joint", True, None)
    validate_document(doc, "structure")
    assert doc["algorithm"] == "joint"
    path = tmp_path / "structs.json"
    write_json(str(path), doc)
    loaded = load_structure_file(str(path))
    back = structures_from_doc(loaded, instances)
    for a, b in zip(back, structures):
        assert a.entity_labels == b.entity_labels
        assert a.relation_labels == b.relation_labels
        assert a.score == pytest.approx(b.score, abs=1e-12)
    # entity entries carry real type names and spans
    for entry, st, inst in zip(doc["sentences"], structures, instances):
        assert len(entry["entities"]) == sum(1 for e in st.entity_labels if e != 0)
        for ent in entry["entities"]:
            assert ent["type"] in inst.inventory.entity_types[1:]
            assert 0 <= ent["start"] <= ent["end"] < inst.length


def test_structure_document_hyphenates_algorithm(scored):
    instances = [r.instance for r in scored]
    task = ConstraintSet(instances[0].inventory)
    structures = [decode(inst, "entity_first", task) for inst in instances]
    doc = structure_document(instances, structures, "entity_first", True, "conll04")
    assert doc["algorithm"] == "entity-first"
    assert doc["constraints"] == "conll04"
    validate_document(doc, "structure")


def test_structures_from_doc_rejects_mismatch(scored):
    instances = [r.instance for r in scored]
    task = ConstraintSet(instances[0].inventory)
    structures = [decode(inst, "joint", task) for inst in instances]
    doc = structure_document(instances, structures, "joint", True)
    with pytest.raises(FormatError):
        structures_from_doc(doc, instances[:1])
    bad = json.loads(dump_canonical(doc))
    bad["sentences"][0]["entity_labels"][0] = 99
    with pytest.raises(FormatError):
        structures_from_doc(bad, instances)
    short = json.loads(dump_canonical(doc))
    short["sentences"][0]["entity_labels"] = short["sentences"][0]["entity_labels"][:-1]
    with pytest.raises(FormatError):
        structures_from_doc(short, instances)


def test_bundled_conll04_table():
    cons = load_constraint_set("conll04")
    assert cons.inventory.entity_types[1:] == ("Peop", "Org", "Loc")
    assert cons.inventory.relation_types[1:] == (
        "Work_For",
        "Live_in",
        "OrgBased_in",
        "Located_in",
        "Kill",
    )
    assert cons.non_overlap and cons.consistency and cons.closed_world
    triples = sum(len(v) for v in cons.allowed_pairs.values())
    assert triples == 5
    assert cons.allowed_pairs[("Org", "Loc")] == frozenset({"OrgBased_in"})
    assert cons.allowed_pairs[("Peop", "Peop")] == frozenset({"Kill"})


def test_bundled_ace05_table_counts():
    cons = load_constraint_set("ace05")
    assert len(cons.inventory.entity_types) == 8
    assert len(cons.inventory.relation_types) == 7
    assert len(cons.allowed_pairs) == 27
    assert sum(len(v) for v in cons.allowed_pairs.values()) == 47
    assert cons.allowed_pairs[("PER", "GPE")] == frozenset(
        {"PHYS", "ORG-AFF", "GEN-AFF"}
    )
    assert cons.allowed_pairs[("WEA", "WEA")] == frozenset({"PART-WHOLE"})


def test_load_constraint_set_from_path(tmp_path):
    doc = {
        "entity_types": ["X", "Y"],
        "relation_types": ["knows"],
        "closed_world": True,
        "allowed": [{"head": "X", "tail": "Y", "relations": ["knows"]}],
    }
    p = tmp_path / "cons.json"
    write_json(str(p), doc)
    cons = load_constraint_set(str(p))
    assert cons.closed_world
    assert cons.non_overlap and cons.consistency  # defaults
    assert cons.allowed_pairs == {("X", "Y"): frozenset({"knows"})}

    bad = dict(doc, allowed=[{"head": "Z", "tail": "Y", "relations": ["knows"]}])
    write_json(str(p), bad)
    with pytest.raises(FormatError) as err:
        load_constraint_set(str(p))
    assert "allowed[0]" in str(err.value)

    dup = dict(
        doc,
        allowed=[
            {"head": "X", "tail": "Y", "relations": ["knows"]},
            {"head": "X", "tail": "Y", "relations": ["knows"]},
        ],
    )
    write_json(str(p), dup)
    with pytest.raises(FormatError):
        load_constraint_set(str(p))

    write_json(str(p), {"entity_types": ["X"]})
    with pytest.raises(FormatError):
        load_constraint_set(str(p))


def test_load_gold(tmp_path):
    doc = {
        "sentences": [
            {
                "entities": [[0, 1, "Peop"], [3, 3, "Org"]],
                "relations": [[[0, 1], [3, 3], "Work_For"]],
            },
            {"entities": [], "relations": []},
        ]
    }
    p = tmp_path / "gold.json"
    write_json(str(p), doc)
    gold = load_gold(str(p))
    assert len(gold) == 2
    assert gold[0].entities == ((0, 1, "Peop"), (3, 3, "Org"))
    assert gold[0].relations == (((0, 1), (3, 3), "Work_For"),)
    assert gold[1] == GoldAnnotation()
    # overlapping gold entities are rejected with the sentence position
    doc["sentences"][0]["entities"] = [[0, 2, "Peop"], [2, 3, "Org"]]
    doc["sentences"][0]["relations"] = []
    write_json(str(p), doc)
    with pytest.raises(FormatError) as err:
        load_gold(str(p))
    assert "gold sentence 0" in str(err.value)
