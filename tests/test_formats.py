"""Document checks: schemas, canonical JSON, round trips, bundled tables,
and reading and writing that agree with the stdlib json module."""

from __future__ import annotations

import gc
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import orjson
import pytest

import spanrel.cli as cli
import spanrel.formats as formats
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
    assert dump_canonical(["😀", "\x7f"]) == '["\\ud83d\\ude00","\\u007f"]\n'


def test_dump_canonical_escapes_each_character_as_the_stdlib_does():
    """Every character past "~" is escaped as json escapes it: all of
    U+0000-U+00FF, the edges of the escaped range and of the BMP, and a
    stride over the rest of Unicode, surrogates left out."""
    edges = [0x7E, 0x7F, 0x80, 0xFFFF, 0x10000, 0x10FFFF]
    codes = [*range(0x100), *edges, *range(0x100, 0x110000, 997)]
    chars = [chr(c) for c in codes if not 0xD800 <= c <= 0xDFFF]
    for doc in ("".join(chars), chars, {c: c for c in chars}):
        assert dump_canonical(doc) == formats._stdlib_canonical(doc)


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
    docs = [{"objective": value} for value in (float("nan"), float("inf"), -float("inf"))]
    docs.append({"constraints": None, "objective": float("nan")})
    for doc in docs:
        with pytest.raises(FormatError) as err:
            write_json(str(p), doc)
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
    doc = score_document(enumerate(scored), seed=0)
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
    """Pairs in any order pack at their input positions, a generator like a
    list; version 2 holds no ranking vectors."""
    doc = score_document(enumerate(scored), seed=0)
    assert doc == score_document(list(enumerate(scored))[::-1], seed=0)
    assert doc["version"] == 2
    for entry, result in zip(doc["sentences"], scored):
        assert "span_ranking_scores" not in entry and "pair_ranking_scores" not in entry
        assert entry["span_kept"] == list(result.span_filter.kept_indices)
        assert entry["pair_kept"] == list(result.pair_filter.kept_indices)
    with pytest.raises(ValueError):
        score_document(iter(()), seed=0)


def test_score_document_rejects_bad_entries(scored):
    doc = score_document(enumerate(scored), seed=0)
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


# ---------------------------------------------------------------------------
# orjson reads and writes; the stdlib json module decides what it refuses

ROOT = Path(__file__).resolve().parent.parent


def _float_texts() -> list[str]:
    """Float texts from every decade: subnormals, 17-digit and longer
    mantissas, the extremes of the double range and signed zeros."""
    rng = np.random.default_rng(14)
    texts = ["0.0", "-0.0", "0e0", "-0e-5", "5e-324", "2.2250738585072014e-308",
             "2.225073858507201e-308", "1.7976931348623157e308", "4.9406564584124654e-324"]
    for exp in range(-324, 308):
        for digits in (1, 3, 16, 17, 25):
            mantissa = "".join(map(str, rng.integers(0, 10, digits)))
            texts.append(f"{rng.integers(1, 10)}.{mantissa}e{exp}")
            texts.append(f"-{rng.integers(1, 10)}{mantissa}E{exp - digits}")
    texts += [repr(x) for x in rng.integers(0, 2**63, 2000, dtype=np.int64).view(np.float64).tolist()]
    return [t for t in texts if "n" not in t]  # random bits can be nan or inf


def test_read_json_matches_the_stdlib_bit_for_bit(tmp_path):
    paths = sorted(FIXTURES.glob("*.json")) + sorted((ROOT / "src" / "spanrel").glob("*/*.json"))
    ints = ["0", "-0", "1", str(-(2**63)), str(2**63 - 1), str(2**63), str(2**64 - 1)]
    numbers = tmp_path / "numbers.json"
    numbers.write_text("[" + ",".join(_float_texts() + ints) + "]")
    orjson.loads(numbers.read_bytes())  # no text falls back to the stdlib reader
    for path in [*paths, numbers]:
        text = path.read_text(encoding="utf-8")
        assert _bits(read_json(str(path))) == _bits(json.loads(text)), path.name


def _run(capsys, argv) -> tuple[int, str]:
    """cli.main's exit code and what it printed to stderr."""
    code = cli.main(argv)
    return code, capsys.readouterr().err


def _first_logit_as(value: str):
    """Edit of the golden score text: sentence 0's entity_logits[0][1] spelled as value."""

    def edit(text):
        doc = json.loads(text)
        doc["sentences"][0]["entity_logits"][0][1] = "VALUE"
        return json.dumps(doc).replace('"VALUE"', value).encode()

    return edit


def _lone_surrogate(text):
    doc = json.loads(text)
    doc["entity_types"][1] += "\ud800"  # "Peop", not the non-entity type
    return json.dumps(doc).encode()


# What the stdlib reader makes of each file: decode's exit code and stderr.
REFUSED_FILES = {
    "nan": (
        _first_logit_as("NaN"),
        2,
        "error: invalid score document at sentences/0/entity_logits/0/1: nan is not a finite number",
    ),
    "1e400": (
        _first_logit_as("1e400"),
        2,
        "error: invalid score document at sentences/0/entity_logits/0/1: inf is not a finite number",
    ),
    "bom": (
        lambda text: b"\xef\xbb\xbf" + text.encode(),
        2,
        "error: {path}: not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0))",
    ),
    "latin-1": (
        lambda text: b'{"tokens": ["caf\xe9"]}',
        2,
        "error: {path}: not UTF-8 ('utf-8' codec can't decode byte 0xe9 in position 16: "
        "invalid continuation byte)",
    ),
    "lone-surrogate": (_lone_surrogate, 0, ""),
    "broken": (
        lambda text: b"{broken",
        2,
        "error: {path}: not valid JSON (Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1))",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_FILES))
def test_files_orjson_refuses_keep_the_stdlib_verdict(tmp_path, capsys, case):
    edit, code, message = REFUSED_FILES[case]
    scores = tmp_path / "scores.json"
    scores.write_bytes(edit((FIXTURES / "golden_score.json").read_text(encoding="utf-8")))
    out = tmp_path / "out.json"
    expected = message.format(path=scores) + "\n" if message else ""
    assert _run(capsys, ["decode", str(scores), "-o", str(out)]) == (code, expected)
    assert out.exists() == (code == 0)


def test_a_seed_beyond_64_bits_round_trips(tmp_path, capsys):
    """orjson reads 2**64 as a float, which the schema refuses; the stdlib
    reader then reads it as the integer it is."""
    scores, structures = tmp_path / "scores.json", tmp_path / "structures.json"
    argv = ["score", str(FIXTURES / "sentences.json"), str(FIXTURES / "params.json")]
    assert _run(capsys, [*argv, "-o", str(scores), "--seed", str(2**64)]) == (0, "")
    assert _run(capsys, ["decode", str(scores), "-o", str(structures)]) == (0, "")
    assert _run(capsys, ["verify", str(structures), str(scores)]) == (0, "")
    assert load_score_file(str(scores))[0]["seed"] == 2**64


def test_dump_canonical_keeps_the_stdlib_values():
    """Every float reads back to the value the stdlib encoder wrote; inside
    1e-4 <= |x| < 1e16 the text is repr's, outside only the spelling of the
    exponent and of small numbers differs."""
    rng = np.random.default_rng(41)
    values = [0.0, -0.0, 5e-324, 1e-4, 9.999999999999999e15, 1e16, 1.7976931348623157e308]
    for exp in range(-320, 301):
        values += (rng.uniform(1, 10, 8) * 10.0**exp * rng.choice([-1, 1], 8)).tolist()
    text = dump_canonical(values)
    assert text == dump_canonical(list(values))
    assert _bits(json.loads(text)) == _bits(json.loads(json.dumps(values)))
    tokens = text[1:-2].split(",")
    assert len(tokens) == len(values)
    for token, x in zip(tokens, values):
        if 1e-4 <= abs(x) < 1e16 or x == 0:
            assert token == repr(x)
    assert dump_canonical([1e-7, 9.999e-05, -1e30]) == "[1e-7,0.00009999,-1e30]\n"


def test_dump_canonical_falls_back_to_the_stdlib_encoder():
    """What orjson cannot encode is written as the stdlib writes it."""
    for doc in ([np.float64(0.1)], [2**64], ["a\ud800"], {"k": -(2**63) - 1}):
        assert dump_canonical(doc) == json.dumps(doc, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# loading a score file: the collector's pause and one array per logits field


def _spy(monkeypatch, module, name, calls):
    """Wrap module.name so that each call records whether the cyclic
    collector was on while it ran."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((name, gc.isenabled()))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_loaders_pause_the_collector_and_restore_it(tmp_path, monkeypatch, collector):
    """Parsing, validation and building instances run with the collector
    off; afterwards it is as it was, whether the load succeeded, failed
    with FormatError, or went through the stdlib reader."""
    calls = []
    for name in ("read_json", "read_json_stdlib", "validate_document", "instances_from_score_doc"):
        _spy(monkeypatch, formats, name, calls)
    load_score_file(str(FIXTURES / "golden_score.json"))
    assert gc.isenabled() == collector
    assert [name for name, _ in calls] == [
        "read_json", "validate_document", "instances_from_score_doc",
    ]
    assert not any(on for _, on in calls)

    calls.clear()
    bad = tmp_path / "bad.json"
    bad.write_text('{"sentences": [{"tokens": []}]}')
    with pytest.raises(FormatError):
        load_sentences(str(bad))
    assert gc.isenabled() == collector
    # A NaN is refused by orjson, read by the stdlib reader, then refused.
    doc = json.loads((FIXTURES / "golden_score.json").read_text())
    doc["sentences"][0]["entity_logits"][0][0] = float("nan")
    bad.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_score_file(str(bad))
    assert gc.isenabled() == collector
    # 2**64 is read as a float by orjson, refused, and read again by the stdlib.
    doc["sentences"][0]["entity_logits"][0][0] = 0.5
    doc["seed"] = 2**64
    bad.write_text(json.dumps(doc))
    assert load_score_file(str(bad))[0]["seed"] == 2**64
    assert gc.isenabled() == collector
    assert "read_json_stdlib" in [name for name, _ in calls]
    assert not any(on for _, on in calls)


def test_loading_the_fixture_score_file_makes_no_cyclic_garbage():
    """A parsed score document and its instances hold no reference cycle,
    so pausing the collector while they are built leaves nothing for it."""
    path = str(FIXTURES / "golden_score.json")
    load_score_file(path)  # schema checkers are built once per process
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        doc, instances = load_score_file(path)
        assert instances
        del doc, instances
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_score_file_logits_are_read_only_views_of_one_array():
    """Each logits field is converted once per file; every instance holds a
    read-only view of it, equal to a conversion of its own rows."""
    doc = json.loads((FIXTURES / "golden_score.json").read_text())
    instances = instances_from_score_doc(doc)
    for field in ("entity_logits", "relation_logits"):
        grids = [getattr(inst, field) for inst in instances]
        assert len({id(grid.base) for grid in grids}) == 1
        for grid, entry in zip(grids, doc["sentences"]):
            assert not grid.flags.writeable
            assert grid.tobytes() == np.asarray(entry[field], dtype=np.float64).tobytes()
    with pytest.raises(ValueError):
        instances[0].entity_logits[0, 0] = 1.0


@pytest.mark.parametrize(
    "edit, message",
    [
        # one sentence's rows are one entry short: the rest still convert
        (lambda doc: [row.pop() for row in doc["sentences"][2]["entity_logits"]],
         "score sentence 2: entity logit grid does not match spans x types"),
        (lambda doc: doc["sentences"][1]["relation_logits"][0].append(0.5),
         "score sentence 1: setting an array element with a sequence"),
        (lambda doc: doc["sentences"][3]["spans"].pop(),
         "score sentence 3: entity logit grid does not match spans x types"),
    ],
)
def test_a_sentence_whose_logits_do_not_fit_is_named(edit, message):
    """When the file's rows are not all one width, each sentence is
    converted and checked on its own, with the message it always had."""
    doc = json.loads((FIXTURES / "golden_score.json").read_text())
    edit(doc)
    with pytest.raises(FormatError) as err:
        instances_from_score_doc(doc)
    assert str(err.value).startswith(message)


def test_write_json_checks_only_null_literals(tmp_path, monkeypatch):
    """The stdlib encoder, which refuses NaN and infinities, runs only when
    orjson's text holds a JSON null, not for "null" inside a word; a string
    that looks like a null costs the check but is written all the same."""
    calls = []
    original = formats._stdlib_canonical

    def spy(doc):
        calls.append(doc)
        return original(doc)

    monkeypatch.setattr(formats, "_stdlib_canonical", spy)
    path = str(tmp_path / "x.json")
    write_json(path, {"sentences": [{"tokens": ["annulled", "null", "nullify"]}]})
    assert calls == []
    assert json.loads(Path(path).read_text())["sentences"][0]["tokens"][1] == "null"
    for doc in ({"constraints": None}, [None, 1], {"a": [1, None]}, {"t": ["x:null,"]}):
        calls.clear()
        write_json(path, doc)
        assert len(calls) == 1, doc
        assert json.loads(Path(path).read_text()) == doc
    for value in (float("nan"), float("inf"), -float("inf")):
        for doc in (value, [value], {"a": value}, {"a": [1.0, value]}):
            with pytest.raises(ValueError):
                dump_canonical(doc)
