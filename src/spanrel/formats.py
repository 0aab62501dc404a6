"""Portable JSON formats: sentences, params, scores, structures, gold.

Every document kind has a published schema under spanrel/schemas/; loaders
validate before constructing objects and raise FormatError with the
offending location.  Files are read and written as UTF-8.  Writers emit
canonical JSON: compact, keys sorted, ASCII only, trailing newline, so
identical data is byte-identical on disk.  Readers accept any JSON
whitespace, so indented files written by earlier versions still load.

orjson parses and writes every document.  The stdlib json module is the
reader and encoder of last resort: it decides every file orjson refuses
or reads differently, and encodes what orjson cannot, so verdicts and
messages are the ones it gives.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Sequence
from importlib import resources
from itertools import chain
from typing import NamedTuple

import jsonschema
import numpy as np
import orjson

from .decode import (
    ConstraintSet,
    DecodedStructure,
    ScoredInstance,
    constraints_from_doc,
)
from .objectives import GoldAnnotation
from .params import bias_from_json, bias_to_json
from .pipeline import SHOWN_MAX, ForwardResult
from .representation import TypeInventory

SCHEMA_NAMES = ("sentences", "params", "score", "structure", "constraints", "gold")


class FormatError(ValueError):
    """A document failed schema or referential validation."""


_schemas: dict[str, dict] = {}
# Per schema: a validator of its head and the path tree to its leaf arrays.
_checkers: dict[str, tuple[object, dict | None]] = {}


def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise ValueError(f"no schema named {name!r}")
    if name not in _schemas:
        text = (
            resources.files("spanrel")
            .joinpath("schemas", f"{name}.schema.json")
            .read_text(encoding="utf-8")
        )
        _schemas[name] = json.loads(text)
    return _schemas[name]


_PLAIN_TYPE = jsonschema.Draft202012Validator.VALIDATORS["type"]


def _strict_type(validator, types, instance, schema):
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
    yield from _PLAIN_TYPE(validator, types, instance, schema)


_StrictValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, {"type": _strict_type}
)


class _Scalar(NamedTuple):
    """A scalar schema: the exact Python types allowed, and its bounds."""

    types: frozenset
    minimum: float | None
    min_length: int  # strings only
    own: dict  # the schema node


class _Record(NamedTuple):
    """An object schema whose properties are scalars or leaf arrays.  Other
    keys are allowed, as the schema allows them."""

    required: tuple[str, ...]
    fields: dict[str, _Scalar | _LeafArray]
    own: dict  # the node's keywords for the object itself


class _LeafArray(NamedTuple):
    """An array schema whose items are all one scalar, record or leaf array
    spec, checked in bulk."""

    min_items: int
    max_items: int | None
    item: _Scalar | _Record | _LeafArray
    own: dict  # the node's keywords for the array itself


_EACH = None  # path-tree step: every element of an array
_ANNOTATIONS = {"$schema", "$id", "$defs", "title", "description", "default"}
_OBJECT_KEYS = _ANNOTATIONS | {"type", "properties", "required", "additionalProperties"}
_ARRAY_KEYS = _ANNOTATIONS | {"type", "items", "prefixItems", "minItems", "maxItems"}
_SCALAR_KEYS = {
    "number": ({int, float}, {"type", "minimum"}),
    "integer": ({int}, {"type", "minimum"}),
    "string": ({str}, {"type", "minLength"}),
}


def _resolve(root: dict, node: object) -> dict | None:
    """Follow local "$ref"s; None for anything but a plain subschema."""
    while isinstance(node, dict) and "$ref" in node:
        ref = node["$ref"]
        if set(node) - _ANNOTATIONS != {"$ref"} or not ref.startswith("#/"):
            return None
        node = root
        for part in ref[2:].split("/"):
            node = node[part]
    return node if isinstance(node, dict) else None


def _scalar(node: dict) -> _Scalar | None:
    kind = node.get("type")
    if not isinstance(kind, str) or kind not in _SCALAR_KEYS:
        return None
    types, keys = _SCALAR_KEYS[kind]
    if not set(node) <= _ANNOTATIONS | keys:
        return None
    return _Scalar(frozenset(types), node.get("minimum"), node.get("minLength", 0), node)


def _record(root: dict, node: dict, specs: dict) -> _Record | None:
    if node.get("type") != "object" or not set(node) <= _OBJECT_KEYS - {"additionalProperties"}:
        return None
    fields = {}
    for key, sub in node.get("properties", {}).items():
        sub = _resolve(root, sub)
        fields[key] = None if sub is None else _scalar(sub) or _leaf_array(root, sub, specs)
        if fields[key] is None:
            return None
    own = {k: v for k, v in node.items() if k != "properties"}
    return _Record(tuple(node.get("required", ())), fields, own)


def _leaf_array(root: dict, node: dict, specs: dict) -> _LeafArray | None:
    """The bulk-check spec of node if it is an array of scalars, records
    or leaf arrays; one spec object per schema node, kept in specs."""
    if id(node) in specs:
        return specs[id(node)]
    if node.get("type") != "array" or not set(node) <= _ARRAY_KEYS:
        return None
    low, high = node.get("minItems", 0), node.get("maxItems")
    prefix = node.get("prefixItems")
    if prefix:
        # A fixed-width tuple of identical items, such as a [start, end] span.
        same = all(_resolve(root, p) == _resolve(root, prefix[0]) for p in prefix)
        if "items" in node or not same or low != len(prefix) or high != low:
            return None
        item = prefix[0]
    elif "items" in node:
        item = node["items"]
    else:
        return None
    item = _resolve(root, item)
    if item is None:
        return None
    item = _scalar(item) or _record(root, item, specs) or _leaf_array(root, item, specs)
    if item is None:
        return None
    own = {k: v for k, v in node.items() if k not in ("items", "prefixItems")}
    specs[id(node)] = _LeafArray(low, high, item, own)
    return specs[id(node)]


def _strip_tree(root: dict, node: object, specs: dict) -> dict | _LeafArray | None:
    """Path tree from node to the leaf arrays beneath it, None if none.

    Descends only through plain object properties and array items, so
    taking a leaf array out of the jsonschema walk changes what no other
    keyword sees."""
    node = _resolve(root, node)
    if node is None:
        return None
    leaf = _leaf_array(root, node, specs)
    if leaf is not None:
        return leaf
    types = node.get("type")
    steps = {}
    if "object" in (types if isinstance(types, list) else [types]):
        if set(node) <= _OBJECT_KEYS:
            steps = node.get("properties", {})
    elif types == "array" and set(node) <= _ARRAY_KEYS - {"prefixItems"}:
        if "items" in node:
            steps = {_EACH: node["items"]}
    tree = {step: _strip_tree(root, sub, specs) for step, sub in steps.items()}
    tree = {step: sub for step, sub in tree.items() if sub is not None}
    return tree or None


def _head_schema(root: dict, node: object, tree) -> object:
    """Copy of node in which the schema of every leaf array under tree is
    True, so jsonschema does not descend into it."""
    if isinstance(tree, _LeafArray):
        return True
    node = dict(_resolve(root, node))
    if _EACH in tree:
        node["items"] = _head_schema(root, node["items"], tree[_EACH])
    else:
        node["properties"] = dict(node["properties"])
        for key, sub in tree.items():
            node["properties"][key] = _head_schema(root, node["properties"][key], sub)
    return node


def _checker(schema_name: str) -> tuple[object, dict | None]:
    """A validator of the document head, and the path tree to its leaf arrays."""
    if schema_name not in _checkers:
        schema = load_schema(schema_name)
        tree = _strip_tree(schema, schema, {})
        head = _head_schema(schema, schema, tree) if tree else schema
        _checkers[schema_name] = (_StrictValidator(head), tree)
    return _checkers[schema_name]


def _collect(node: object, tree, path: tuple, columns: dict) -> None:
    """Add each leaf array under tree to the column of its spec, with its path."""
    if isinstance(tree, _LeafArray):
        columns.setdefault(id(tree), (tree, []))[1].append((path, node))
    elif type(node) is list and _EACH in tree:
        for i, x in enumerate(node):
            _collect(x, tree[_EACH], (*path, i), columns)
    elif type(node) is dict:
        for key, sub in tree.items():
            if key in node:
                _collect(node[key], sub, (*path, key), columns)


def _scalars_ok(items: list, spec: _Scalar) -> bool:
    if not items:
        return True
    kinds = set(map(type, items))
    if not kinds <= spec.types:
        return False
    # A finite sum of floats means each one is finite; an overflowing sum
    # and ints, which can cancel, are left to the exact test.
    if float in spec.types and not (kinds == {float} and math.isfinite(sum(items))):
        try:
            if not np.isfinite(np.array(items, dtype=np.float64)).all():
                return False
        except OverflowError:
            return False
    if spec.min_length and min(map(len, items)) < spec.min_length:
        return False
    return spec.minimum is None or min(items) >= spec.minimum


def _column_ok(values: list, spec: _Scalar | _Record | _LeafArray) -> bool:
    """Bulk check of values that all sit at one schema node; True only if
    jsonschema plus the strict type rules would find nothing wrong with any
    of them.  The check of a list holds iff it holds for each value."""
    if isinstance(spec, _Scalar):
        return _scalars_ok(values, spec)
    if isinstance(spec, _LeafArray):
        if not set(map(type, values)) <= {list}:
            return False
        if spec.min_items and min(map(len, values), default=spec.min_items) < spec.min_items:
            return False
        if spec.max_items is not None and max(map(len, values), default=0) > spec.max_items:
            return False
        return _column_ok(list(chain.from_iterable(values)), spec.item)
    if not set(map(type, values)) <= {dict}:
        return False
    if not all(key in r for key in spec.required for r in values):
        return False
    return all(
        _column_ok([r[key] for r in values if key in r], field)
        for key, field in spec.fields.items()
    )


def _first_bad(items: list, spec) -> int:
    """Index of the first item that fails its bulk check, by bisection; at
    least one does."""
    lo, hi = 0, len(items)  # items[:lo] pass; items[lo:hi] holds a failure
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _column_ok(items[lo:mid], spec):
            lo = mid
        else:
            hi = mid
    return lo


def _first_error(validator, value: object, spec) -> tuple[list, jsonschema.ValidationError]:
    """Location and error jsonschema reports first for value, which failed
    its bulk check.  The node's own keywords are walked first, as their
    errors sit at the shortest location; then only the first bad element,
    or the failing property whose name sorts first."""
    error = next(validator.evolve(schema=spec.own).iter_errors(value), None)
    if error is not None:
        return [], error
    if isinstance(spec, _LeafArray):
        step = _first_bad(value, spec.item)
        sub = spec.item
    else:  # a record; a scalar always fails on its own keywords
        step = min(k for k, f in spec.fields.items() if k in value and not _column_ok([value[k]], f))
        sub = spec.fields[step]
    where, error = _first_error(validator, value[step], sub)
    return [step, *where], error


def _message(error: jsonschema.ValidationError, whole: bool) -> str:
    """jsonschema's message, but an array or object that heads it is named
    by its JSON type when it is the whole document or its repr is long."""
    value = error.instance
    shown = repr(value) if isinstance(value, (list, dict)) else None
    if shown is None or not error.message.startswith(shown):
        return error.message
    if len(shown) <= SHOWN_MAX and not whole:
        return error.message
    kind = "an array" if isinstance(value, list) else "an object"
    return kind + error.message[len(shown):]


def validate_document(doc: object, schema_name: str) -> None:
    """Schema-check a parsed document; FormatError names the bad path.

    jsonschema walks only the head of the document (the root object,
    version, seed and the bias and weight-group objects; a gold file's
    sentences, whose triples do not qualify, in full).  Every leaf array
    (an array of scalars, of leaf arrays, or of records whose properties
    are scalars or leaf arrays) is checked in bulk instead, one column per
    schema node: a score, structure or sentences file's `sentences` array
    is one leaf array, so the logits of all its sentences are one column,
    as are all params matrices that use one `$defs` entry.  Only a column
    that fails is searched, by bisection, for its first bad element, and
    jsonschema walks just that element, so the location and message are
    the ones a full walk reports first.  Beyond the schema, every number
    must be finite and an integer may not be written as 1.0; a document of
    the wrong type, or a long array or object, is named by its JSON type,
    not printed."""
    validator, tree = _checker(schema_name)
    errors = [(list(e.absolute_path), e) for e in validator.iter_errors(doc)]
    columns: dict = {}
    if tree:
        _collect(doc, tree, (), columns)
    for spec, members in columns.values():
        if not _column_ok([value for _, value in members], spec):
            path, value = min(
                ((p, v) for p, v in members if not _column_ok([v], spec)), key=lambda m: m[0]
            )
            where, error = _first_error(validator, value, spec)
            errors.append(([*path, *where], error))
    if errors:
        where, error = min(errors, key=lambda e: e[0])
        message = _message(error, whole=not where)
        where = "/".join(str(p) for p in where) or "<root>"
        raise FormatError(f"invalid {schema_name} document at {where}: {message}")


def read_json_stdlib(path: str) -> object:
    """The file as the stdlib json module reads it: integers of any size,
    NaN and infinities as floats, nesting up to the recursion limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc})") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply to read") from exc


def read_json(path: str) -> object:
    """The file parsed by orjson; a file orjson refuses (NaN, 1e400, a BOM,
    invalid UTF-8, a lone surrogate, broken syntax) by read_json_stdlib."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return read_json_stdlib(path)


def load_document(path: str, schema_name: str) -> object:
    """Read path and validate it as a schema_name document.

    orjson reads an integer beyond 64 bits as a float and has no nesting
    limit, and both show only when validation refuses the document.  So a
    refused document is read again by read_json_stdlib and validated
    again, and that verdict stands."""
    doc = read_json(path)
    try:
        validate_document(doc, schema_name)
    except (FormatError, RecursionError):
        doc = read_json_stdlib(path)
        validate_document(doc, schema_name)
    return doc


_NON_ASCII = re.compile("[\x7f-\U0010ffff]")


def _ascii_escape(match: re.Match) -> str:
    """json's escape of one character: \\u00e9, or a surrogate pair."""
    code = ord(match.group())
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _stdlib_canonical(doc: object) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


def _canonical_bytes(doc: object) -> bytes:
    try:
        data = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:
        # numpy scalars, integers beyond 64 bits, lone surrogates, deep nesting
        return _stdlib_canonical(doc).encode("ascii")
    if b"null" in data:
        _stdlib_canonical(doc)  # orjson writes NaN and infinities as null
    if not data.isascii() or b"\x7f" in data:
        # Outside strings orjson writes ASCII only.
        data = _NON_ASCII.sub(_ascii_escape, data.decode("utf-8")).encode("ascii")
    return data


def dump_canonical(doc: object) -> str:
    """Compact, key-sorted, ASCII-only JSON with a trailing newline.

    Characters past ASCII, and DEL, are escaped as json escapes them.
    Floats are written as orjson writes them, the shortest text that reads
    back to the same float: repr's text for 1e-4 <= |x| < 1e16, elsewhere
    without a "+" or a leading zero in the exponent (1e-7, -1e30) and in
    positional form down to 1e-5 (0.00009999).  NaN and infinities raise
    ValueError.  What orjson cannot encode (numpy scalars, integers beyond
    64 bits) is written by the stdlib encoder, with repr's floats."""
    return _canonical_bytes(doc).decode("ascii")


def write_json(path: str, doc: object) -> None:
    try:
        data = _canonical_bytes(doc)
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise FormatError(f"{path} not written: {exc}") from exc
    with open(path, "wb") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# sentences


def load_sentences(path: str) -> list[tuple[str, ...]]:
    doc = load_document(path, "sentences")
    return [tuple(entry["tokens"]) for entry in doc["sentences"]]


# ---------------------------------------------------------------------------
# scores


def _score_entry(result: ForwardResult) -> dict:
    """What a decoder reads of one sentence, plus the kept candidates."""
    inst = result.instance
    entry = {
        "length": inst.length,
        "spans": [list(s) for s in inst.spans],
        "entity_logits": inst.entity_logits.tolist(),
        "pairs": [list(p) for p in inst.pairs],
        "relation_logits": inst.relation_logits.tolist(),
        "span_kept": list(result.span_filter.kept_indices),
        "pair_kept": list(result.pair_filter.kept_indices),
    }
    if inst.tokens is not None:
        entry["tokens"] = list(inst.tokens)
    return entry


def score_document(results: Iterable[ForwardResult], seed: int) -> dict:
    """Pack forward results (all from the same params) into one document.

    Results are packed one at a time as the iterable yields them, so a
    generator of forward passes never holds more than one ForwardResult."""
    results = iter(results)
    first = next(results, None)
    if first is None:
        raise ValueError("need at least one scored sentence")
    inv, bias = first.instance.inventory, first.instance.bias
    sentences = [_score_entry(first)]
    del first
    sentences += map(_score_entry, results)
    return {
        "version": 2,  # version 1 also held each sentence's ranking vectors
        "seed": seed,
        "entity_types": list(inv.entity_types),
        "relation_types": list(inv.relation_types),
        "bias": bias_to_json(bias) if bias is not None else None,
        "sentences": sentences,
    }


def _logit_grid(rows: list, types: int) -> np.ndarray:
    """One row of logits per candidate; no candidates is a (0, types) grid."""
    grid = np.asarray(rows, dtype=np.float64)
    return grid if len(rows) else grid.reshape(0, types)


def instances_from_score_doc(doc: dict) -> list[ScoredInstance]:
    """Rebuild decoder inputs from a validated score document."""
    inventory = TypeInventory(
        tuple(doc["entity_types"]), tuple(doc["relation_types"])
    )
    bias = None
    if doc.get("bias") is not None:
        try:
            bias = bias_from_json(doc["bias"])
        except ValueError as exc:
            raise FormatError(f"score bias: {exc}") from exc
        e, r = inventory.num_entity_types, inventory.num_relation_types
        if bias.joint.shape != (e, e, r):
            raise FormatError(
                f"score bias: joint table has shape {bias.joint.shape}, "
                f"the inventory needs ({e}, {e}, {r})"
            )
    out = []
    for pos, entry in enumerate(doc["sentences"]):
        try:
            out.append(
                ScoredInstance(
                    length=entry["length"],
                    spans=tuple((s[0], s[1]) for s in entry["spans"]),
                    entity_logits=_logit_grid(entry["entity_logits"], inventory.num_entity_types),
                    pairs=tuple((p[0], p[1]) for p in entry["pairs"]),
                    relation_logits=_logit_grid(entry["relation_logits"], inventory.num_relation_types),
                    inventory=inventory,
                    bias=bias,
                    tokens=tuple(entry["tokens"]) if "tokens" in entry else None,
                )
            )
        except ValueError as exc:
            raise FormatError(f"score sentence {pos}: {exc}") from exc
    return out


def load_score_file(path: str) -> tuple[dict, list[ScoredInstance]]:
    doc = load_document(path, "score")
    return doc, instances_from_score_doc(doc)


# ---------------------------------------------------------------------------
# structures


def structure_document(
    instances: Sequence[ScoredInstance],
    structures: Sequence[DecodedStructure],
    algorithm: str,
    use_bias: bool,
    constraints: str | None = None,
) -> dict:
    if len(instances) != len(structures):
        raise ValueError("one structure per instance required")
    sentences = []
    for inst, st in zip(instances, structures):
        inv = inst.inventory
        sentences.append(
            {
                "objective": st.score,
                "entities": [
                    {
                        "start": s,
                        "end": e,
                        "type": inv.entity_types[c],
                        "score": v,
                    }
                    for s, e, c, v in st.entity_items(inst)
                ],
                "relations": [
                    {
                        "head": h,
                        "tail": t,
                        "type": inv.relation_types[c],
                        "score": v,
                    }
                    for h, t, c, v in st.relation_items(inst, use_bias)
                ],
                "entity_labels": list(st.entity_labels),
                "relation_labels": list(st.relation_labels),
            }
        )
    return {
        "version": 1,
        "algorithm": algorithm.replace("_", "-"),
        "use_bias": use_bias,
        "constraints": constraints,
        "sentences": sentences,
    }


def structures_from_doc(
    doc: dict, instances: Sequence[ScoredInstance]
) -> list[DecodedStructure]:
    """Rebuild label vectors from a structure document for verification."""
    entries = doc["sentences"]
    if len(entries) != len(instances):
        raise FormatError(
            f"structure file has {len(entries)} sentences, "
            f"score file has {len(instances)}"
        )
    out = []
    for pos, (entry, inst) in enumerate(zip(entries, instances)):
        ents = tuple(entry["entity_labels"])
        rels = tuple(entry["relation_labels"])
        n_ent = inst.inventory.num_entity_types
        n_rel = inst.inventory.num_relation_types
        if len(ents) != len(inst.spans) or len(rels) != len(inst.pairs):
            raise FormatError(f"structure sentence {pos}: label count mismatch")
        if any(not 0 <= e < n_ent for e in ents) or any(
            not 0 <= r < n_rel for r in rels
        ):
            raise FormatError(f"structure sentence {pos}: label out of range")
        out.append(DecodedStructure(ents, rels, float(entry["objective"])))
    return out


def load_structure_file(path: str) -> dict:
    doc = load_document(path, "structure")
    return doc


# ---------------------------------------------------------------------------
# constraints

BUNDLED_CONSTRAINTS = ("conll04", "ace05")


def load_constraint_set(name_or_path: str) -> ConstraintSet:
    """Resolve a bundled fixture name (conll04, ace05) or a file path."""
    if name_or_path in BUNDLED_CONSTRAINTS:
        text = (
            resources.files("spanrel")
            .joinpath("data", f"{name_or_path}_constraints.json")
            .read_text(encoding="utf-8")
        )
        doc = json.loads(text)
        validate_document(doc, "constraints")
        origin = f"bundled:{name_or_path}"
    else:
        doc = load_document(name_or_path, "constraints")
        origin = name_or_path
    try:
        return constraints_from_doc(doc, origin=origin)
    except (KeyError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# gold


def load_gold(path: str) -> list[GoldAnnotation]:
    doc = load_document(path, "gold")
    out = []
    for pos, entry in enumerate(doc["sentences"]):
        try:
            out.append(
                GoldAnnotation(
                    entities=tuple(
                        (s, e, t) for s, e, t in entry.get("entities", [])
                    ),
                    relations=tuple(
                        ((h[0], h[1]), (t[0], t[1]), name)
                        for h, t, name in entry.get("relations", [])
                    ),
                )
            )
        except ValueError as exc:
            raise FormatError(f"gold sentence {pos}: {exc}") from exc
    return out


__all__ = [
    "BUNDLED_CONSTRAINTS",
    "FormatError",
    "SCHEMA_NAMES",
    "dump_canonical",
    "instances_from_score_doc",
    "load_constraint_set",
    "load_document",
    "load_gold",
    "load_schema",
    "load_score_file",
    "load_sentences",
    "load_structure_file",
    "read_json",
    "read_json_stdlib",
    "score_document",
    "structure_document",
    "structures_from_doc",
    "validate_document",
    "write_json",
]
