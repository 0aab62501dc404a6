"""Portable JSON formats: sentences, params, scores, structures, gold.

Every document kind has a published schema under spanrel/schemas/; loaders
validate before constructing objects and raise FormatError with the
offending location.  Files are read and written as UTF-8.  Writers emit
canonical JSON: compact, keys sorted, ASCII only, trailing newline, so
identical data is byte-identical on disk.  Readers accept any JSON
whitespace, so indented files written by earlier versions still load.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from importlib import resources
from itertools import chain
from typing import NamedTuple

import jsonschema
import numpy as np

from .decode import (
    ConstraintSet,
    DecodedStructure,
    ScoredInstance,
    constraints_from_doc,
)
from .objectives import GoldAnnotation
from .params import bias_from_json, bias_to_json
from .pipeline import ForwardResult
from .representation import TypeInventory

SCHEMA_NAMES = ("sentences", "params", "score", "structure", "constraints", "gold")


class FormatError(ValueError):
    """A document failed schema or referential validation."""


_schemas: dict[str, dict] = {}
# Per schema: its validator and the path tree to its leaf arrays.
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


class _Record(NamedTuple):
    """A flat object schema: required keys and a scalar schema per property.
    Other keys are allowed, as the schema allows them."""

    required: tuple[str, ...]
    fields: dict[str, _Scalar]


class _LeafArray(NamedTuple):
    """A schema node for nested arrays of scalars or flat records, checked
    in bulk."""

    levels: tuple[tuple[int, int | None], ...]  # (minItems, maxItems), outermost first
    item: _Scalar | _Record
    schema: dict


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


def _scalar(node: dict | None) -> _Scalar | None:
    kind = node.get("type") if node is not None else None
    if not isinstance(kind, str) or kind not in _SCALAR_KEYS:
        return None
    types, keys = _SCALAR_KEYS[kind]
    if not set(node) <= _ANNOTATIONS | keys:
        return None
    return _Scalar(frozenset(types), node.get("minimum"), node.get("minLength", 0))


def _record(root: dict, node: dict) -> _Record | None:
    if node.get("type") != "object" or not set(node) <= _OBJECT_KEYS - {"additionalProperties"}:
        return None
    fields = {key: _scalar(_resolve(root, sub)) for key, sub in node.get("properties", {}).items()}
    if None in fields.values():
        return None
    return _Record(tuple(node.get("required", ())), fields)


def _leaf_array(root: dict, node: dict) -> _LeafArray | None:
    """The bulk-check spec of node if it is nested arrays of one scalar
    type or of flat records."""
    top, levels = node, []
    while node.get("type") == "array" and set(node) <= _ARRAY_KEYS:
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
        levels.append((low, high))
        node = _resolve(root, item)
        if node is None:
            return None
    item = _scalar(node) or _record(root, node)
    if not levels or item is None:
        return None
    return _LeafArray(tuple(levels), item, top)


def _strip_tree(root: dict, node: object) -> dict | _LeafArray | None:
    """Path tree from node to the leaf arrays beneath it, None if none.

    Descends only through plain object properties and array items, so an
    array replaced by [] changes what no other keyword sees."""
    node = _resolve(root, node)
    if node is None:
        return None
    leaf = _leaf_array(root, node)
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
    tree = {step: _strip_tree(root, sub) for step, sub in steps.items()}
    tree = {step: sub for step, sub in tree.items() if sub is not None}
    return tree or None


def _checker(schema_name: str) -> tuple[object, dict | None]:
    if schema_name not in _checkers:
        schema = load_schema(schema_name)
        _checkers[schema_name] = (_StrictValidator(schema), _strip_tree(schema, schema))
    return _checkers[schema_name]


def _strip(node: object, tree, path: tuple, found: list) -> object:
    """Copy of node with every leaf array under tree replaced by [];
    the arrays go to found with their paths."""
    if isinstance(tree, _LeafArray):
        if type(node) is not list:
            return node
        found.append((path, node, tree))
        # The skeleton keeps the first minItems entries, so that jsonschema
        # still sees whether the array is long enough.
        return node[: tree.levels[0][0]]
    if type(node) is list and _EACH in tree:
        sub = tree[_EACH]
        return [_strip(x, sub, (*path, i), found) for i, x in enumerate(node)]
    if type(node) is dict:
        node = dict(node)
        for key, sub in tree.items():
            if key in node:
                node[key] = _strip(node[key], sub, (*path, key), found)
    return node


def _scalars_ok(items: list, spec: _Scalar) -> bool:
    if not items:
        return True
    if not set(map(type, items)) <= spec.types:
        return False
    if float in spec.types:
        try:
            if not np.isfinite(np.array(items, dtype=np.float64)).all():
                return False
        except OverflowError:
            return False
    if spec.min_length and min(map(len, items)) < spec.min_length:
        return False
    return spec.minimum is None or min(items) >= spec.minimum


def _leaf_ok(value: list, spec: _LeafArray) -> bool:
    """Bulk check of a leaf array; True only if jsonschema plus the strict
    type rules would find nothing wrong with it."""
    items = [value]
    for low, high in spec.levels:
        if not set(map(type, items)) <= {list}:
            return False
        if low and min(map(len, items), default=low) < low:
            return False
        if high is not None and max(map(len, items), default=0) > high:
            return False
        items = list(chain.from_iterable(items))
    if isinstance(spec.item, _Scalar):
        return _scalars_ok(items, spec.item)
    if not set(map(type, items)) <= {dict}:
        return False
    record = spec.item
    if not all(key in r for key in record.required for r in items):
        return False
    return all(
        _scalars_ok([r[key] for r in items if key in r], field)
        for key, field in record.fields.items()
    )


def validate_document(doc: object, schema_name: str) -> None:
    """Schema-check a parsed document; FormatError names the bad path.

    jsonschema walks a skeleton of the document whose leaf arrays (logits,
    spans, weight matrices, token lists, a structure's entity and relation
    records) are emptied down to their minItems; each of those is checked
    in bulk instead, and only an array that fails is walked
    element by element to find the location.  Beyond the schema, every
    number must be finite and an integer may not be written as 1.0."""
    validator, tree = _checker(schema_name)
    found: list = []
    skeleton = _strip(doc, tree, (), found) if tree else doc
    errors = [(list(e.absolute_path), e.message) for e in validator.iter_errors(skeleton)]
    for path, value, spec in found:
        if not _leaf_ok(value, spec):
            errors += [
                ([*path, *e.absolute_path], e.message)
                for e in validator.evolve(schema=spec.schema).iter_errors(value)
            ]
    if errors:
        where, message = min(errors, key=lambda e: e[0])
        where = "/".join(str(p) for p in where) or "<root>"
        raise FormatError(f"invalid {schema_name} document at {where}: {message}")


def read_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc})") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply to read") from exc


def dump_canonical(doc: object) -> str:
    """Compact, key-sorted, ASCII-only JSON with a trailing newline.

    Without indent, json runs its C encoder; floats are written by
    float.__repr__ either way, so values round-trip exactly."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str, doc: object) -> None:
    try:
        text = dump_canonical(doc)
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise FormatError(f"{path} not written: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# sentences


def load_sentences(path: str) -> list[tuple[str, ...]]:
    doc = read_json(path)
    validate_document(doc, "sentences")
    return [tuple(entry["tokens"]) for entry in doc["sentences"]]


# ---------------------------------------------------------------------------
# scores


def _score_entry(result: ForwardResult) -> dict:
    inst = result.instance
    entry = {
        "length": inst.length,
        "spans": [list(s) for s in inst.spans],
        "entity_logits": inst.entity_logits.tolist(),
        "pairs": [list(p) for p in inst.pairs],
        "relation_logits": inst.relation_logits.tolist(),
        "span_kept": list(result.span_filter.kept_indices),
        "span_ranking_scores": result.span_filter.ranking_scores.tolist(),
        "pair_kept": list(result.pair_filter.kept_indices),
        "pair_ranking_scores": result.pair_filter.ranking_scores.tolist(),
    }
    if inst.tokens is not None:
        entry["tokens"] = list(inst.tokens)
    return entry


def score_document(results: Sequence[ForwardResult], seed: int) -> dict:
    """Pack forward results (all from the same params) into one document."""
    if not results:
        raise ValueError("need at least one scored sentence")
    inv = results[0].instance.inventory
    bias = results[0].instance.bias
    return {
        "version": 1,
        "seed": seed,
        "entity_types": list(inv.entity_types),
        "relation_types": list(inv.relation_types),
        "bias": bias_to_json(bias) if bias is not None else None,
        "sentences": [_score_entry(r) for r in results],
    }


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
                    entity_logits=np.asarray(entry["entity_logits"], dtype=np.float64),
                    pairs=tuple((p[0], p[1]) for p in entry["pairs"]),
                    relation_logits=np.asarray(
                        entry["relation_logits"], dtype=np.float64
                    ),
                    inventory=inventory,
                    bias=bias,
                    tokens=tuple(entry["tokens"]) if "tokens" in entry else None,
                )
            )
        except ValueError as exc:
            raise FormatError(f"score sentence {pos}: {exc}") from exc
    return out


def load_score_file(path: str) -> tuple[dict, list[ScoredInstance]]:
    doc = read_json(path)
    validate_document(doc, "score")
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
    doc = read_json(path)
    validate_document(doc, "structure")
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
        origin = f"bundled:{name_or_path}"
    else:
        doc = read_json(name_or_path)
        origin = name_or_path
    validate_document(doc, "constraints")
    try:
        return constraints_from_doc(doc, origin=origin)
    except (KeyError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# gold


def load_gold(path: str) -> list[GoldAnnotation]:
    doc = read_json(path)
    validate_document(doc, "gold")
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
    "load_gold",
    "load_schema",
    "load_score_file",
    "load_sentences",
    "load_structure_file",
    "read_json",
    "score_document",
    "structure_document",
    "structures_from_doc",
    "validate_document",
    "write_json",
]
