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

import gc
import json
import math
import re
from collections.abc import Iterable, Sequence
from functools import cache
from importlib import resources
from itertools import accumulate, chain
from numbers import Number
from typing import NamedTuple

import numpy as np
import orjson

from .decode import (
    ConstraintSet,
    DecodedStructure,
    ScoredInstance,
    constraints_from_doc,
)
from .objectives import GoldAnnotation
from .params import from_json, to_json
from .pipeline import SHOWN_MAX, ForwardResult, shown
from .representation import BiasTable, TypeInventory

SCHEMA_NAMES = ("sentences", "params", "score", "structure", "constraints", "gold")


class FormatError(ValueError):
    """A document failed schema or referential validation."""


@cache
def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise ValueError(f"no schema named {name!r}")
    text = (
        resources.files("spanrel")
        .joinpath("schemas", f"{name}.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


class _Scalar(NamedTuple):
    """A scalar schema: the exact Python types allowed, its bounds, and for
    "const" and "enum" the (type, value) pairs it admits."""

    types: frozenset
    minimum: float | None
    min_length: int  # strings only
    choices: frozenset | None = None


class _Record(NamedTuple):
    """An object schema whose properties all have specs.  Other keys are
    allowed, as the schema allows them, unless it is closed
    ("additionalProperties": false)."""

    required: tuple[str, ...]
    fields: dict[str, _Spec]
    closed: bool


class _LeafArray(NamedTuple):
    """An array schema whose items are all one scalar, record or leaf array
    spec, checked in bulk."""

    min_items: int
    max_items: int | None
    item: _Spec


class _OrNull(NamedTuple):
    """A type union of null and the one other type of spec."""

    spec: _Spec


_Spec = _Scalar | _Record | _LeafArray | _OrNull

_ANNOTATIONS = {"$schema", "$id", "$defs", "title", "description", "default"}
_OBJECT_KEYS = _ANNOTATIONS | {"type", "properties", "required", "additionalProperties"}
_ARRAY_KEYS = _ANNOTATIONS | {"type", "items", "prefixItems", "minItems", "maxItems"}
_SCALAR_KEYS = {
    "number": ({int, float}, {"type", "minimum"}),
    "integer": ({int}, {"type", "minimum"}),
    "string": ({str}, {"type", "minLength"}),
    "boolean": ({bool}, {"type"}),
}


def _spec(node: object) -> _Spec | None:
    """The bulk-check spec of a subschema, None if it has none."""
    if not isinstance(node, dict):
        return None
    kind = node.get("type")
    if isinstance(kind, list):
        rest = [k for k in kind if k != "null"]
        if len(kind) != 2 or len(rest) != 1:
            return None
        spec = _spec({**node, "type": rest[0]})
        return None if spec is None else _OrNull(spec)
    return _choice(node) or _scalar(node) or _record(node) or _leaf_array(node)


def _choice(node: dict) -> _Scalar | None:
    """A "const" or "enum" of strings and integers, with or without a "type"
    that every listed value has.  Only a value of the listed type matches,
    so 1.0, which JSON Schema takes for 1, is left to the walk."""
    keys = set(node) - _ANNOTATIONS - {"type"}
    if keys == {"const"}:
        values = [node["const"]]
    elif keys == {"enum"} and isinstance(node["enum"], list):
        values = node["enum"]
    else:
        return None
    kind = node.get("type")
    types = {int, str} if kind is None else _SCALAR_KEYS.get(kind, (set(),))[0] & {int, str}
    if not values or not {type(v) for v in values} <= types:
        return None
    return _Scalar(frozenset(map(type, values)), None, 0, frozenset((type(v), v) for v in values))


def _scalar(node: dict) -> _Scalar | None:
    kind = node.get("type")
    if not isinstance(kind, str) or kind not in _SCALAR_KEYS:
        return None
    types, keys = _SCALAR_KEYS[kind]
    if not set(node) <= _ANNOTATIONS | keys:
        return None
    return _Scalar(frozenset(types), node.get("minimum"), node.get("minLength", 0))


def _record(node: dict) -> _Record | None:
    if node.get("type") != "object" or not set(node) <= _OBJECT_KEYS:
        return None
    others = node.get("additionalProperties", True)
    if type(others) is not bool:
        return None
    fields = {key: _spec(sub) for key, sub in node.get("properties", {}).items()}
    if None in fields.values():
        return None
    return _Record(tuple(node.get("required", ())), fields, not others)


def _leaf_array(node: dict) -> _LeafArray | None:
    """The spec of node if it is an array of scalars, records or leaf arrays."""
    if node.get("type") != "array" or not set(node) <= _ARRAY_KEYS:
        return None
    low, high = node.get("minItems", 0), node.get("maxItems")
    prefix = node.get("prefixItems")
    if prefix:
        # A fixed-width tuple of identical items, such as a [start, end] span.
        same = all(p == prefix[0] for p in prefix)
        if "items" in node or not same or low != len(prefix) or high != low:
            return None
        item = _spec(prefix[0])
    else:
        item = _spec(node.get("items"))
    return None if item is None else _LeafArray(low, high, item)


def _inline(root: dict, node: object) -> object:
    """A copy of node with each local "$ref" replaced by its target, itself
    inlined."""
    if isinstance(node, list):
        return [_inline(root, x) for x in node]
    if not isinstance(node, dict):
        return node
    if set(node) - _ANNOTATIONS == {"$ref"} and node["$ref"].startswith("#/"):
        target = root
        for part in node["$ref"][2:].split("/"):
            target = target[part]
        return _inline(root, target)
    return {key: _inline(root, sub) for key, sub in node.items()}


@cache
def _inlined(schema_name: str) -> tuple[dict, _Spec | None, dict[int, _Spec | None]]:
    """The schema with every local "$ref" inlined, the spec of its root (None
    for gold, whose triples mix integers and strings), and the spec of each
    of its nodes' "items" by the node's id, which the cache keeps alive."""
    schema = load_schema(schema_name)
    inlined = _inline(schema, schema)
    specs, stack = {}, [inlined]
    while stack:  # every dict and list of the schema
        node = stack.pop()
        if isinstance(node, dict) and "items" in node:
            specs[id(node)] = _spec(node["items"])
        parts = node.values() if isinstance(node, dict) else node
        stack += [x for x in parts if isinstance(x, (dict, list))]
    return inlined, _spec(inlined), specs


def _scalars_ok(items: list, spec: _Scalar) -> bool:
    if not items:
        return True
    # A column nearly always has one type, counted faster than a set is built.
    first = type(items[0])
    kinds = {first} if list(map(type, items)).count(first) == len(items) else set(map(type, items))
    if not kinds <= spec.types:
        return False
    if spec.choices is not None and not set(zip(map(type, items), items)) <= spec.choices:
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


def _column_ok(values: list, spec: _Spec) -> bool:
    """Bulk check of values that all sit at one schema node; True only if
    the walk of _first_error would find nothing wrong with any of them.
    The check of a list holds iff it holds for each value."""
    if isinstance(spec, _Scalar):
        return _scalars_ok(values, spec)
    if isinstance(spec, _OrNull):
        return _column_ok([v for v in values if v is not None], spec.spec)
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
    if spec.closed and not all(r.keys() <= spec.fields.keys() for r in values):
        return False
    return all(
        _column_ok([r[key] for r in values if key in r], field)
        for key, field in spec.fields.items()
    )


def _first_bad(items: list, spec: _Spec) -> int:
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


# The JSON types as JSON Schema tells them apart: true is no integer, 1.0 is.
_IS_TYPE = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (not isinstance(v, bool) and isinstance(v, int)
                          or isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: not isinstance(v, bool) and isinstance(v, Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _equal(a: object, b: object) -> bool:
    """Equality as "const" and "enum" read it: true is not 1, but 1.0 is."""
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b


def _own_error(value: object, node: dict) -> str | tuple[object, str] | None:
    """The first error of value against node's keywords that do not descend,
    in the walk's order, which every bundled schema lists them in.  Beyond
    the schema, every number must be finite and an integer may not be 1.0.
    A message led by value is (value, rest), worded only when reported."""
    if "type" in node:
        types, kind = node["type"], type(value)
        types = [types] if isinstance(types, str) else types
        if kind is float or (kind is int and "number" in types):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                return value, " is not a finite number"
        if kind is float and "integer" in types and "number" not in types:
            return value, " is not of type 'integer'"
        if not any(_IS_TYPE[t](value) for t in types):
            return value, " is not of type " + ", ".join(map(repr, types))
    if "const" in node and not _equal(value, node["const"]):
        return f"{node['const']!r} was expected"
    if "enum" in node and not any(_equal(value, v) for v in node["enum"]):
        return value, f" is not one of {node['enum']!r}"
    if isinstance(value, dict):
        missing = [key for key in node.get("required", ()) if key not in value]
        if missing:
            return f"{missing[0]!r} is a required property"
        extra = sorted(value.keys() - node.get("properties", {}).keys(), key=str)
        if node.get("additionalProperties", True) is False and extra:
            extras = ", ".join(map(repr, extra)) + (" was" if len(extra) == 1 else " were")
            return f"Additional properties are not allowed ({extras} unexpected)"
    if isinstance(value, (list, str)):
        low = node.get("minItems" if isinstance(value, list) else "minLength", 0)
        if len(value) < low:
            return value, " should be non-empty" if low == 1 else " is too short"
        if isinstance(value, list) and len(value) > node.get("maxItems", len(value)):
            return value, " is expected to be empty" if node["maxItems"] == 0 else " is too long"
    if "minimum" in node and _IS_TYPE["number"](value) and value < node["minimum"]:
        return value, f" is less than the minimum of {node['minimum']!r}"
    return None


def _children(value: object, node: dict, specs: dict) -> Iterable[tuple[str | int, object, dict]]:
    """(key, part, subschema) of each part of value that node's "properties",
    "prefixItems" or "items" reach, by key; of a leaf array's items, which
    are one bulk check against their spec in specs, only those that fail it."""
    if isinstance(value, dict):
        properties = node.get("properties", {})
        for key in sorted(properties.keys() & value.keys()):
            yield key, value[key], properties[key]
    elif isinstance(value, list):
        prefix = node.get("prefixItems", ())
        yield from zip(range(len(value)), value, prefix)
        items, spec = value[len(prefix):] if prefix else value, specs.get(id(node))
        if "items" in node and (spec is None or not _column_ok(items, spec)):
            for i in range(0 if spec is None else _first_bad(items, spec), len(items)):
                if spec is None or not _column_ok([items[i]], spec):
                    yield len(prefix) + i, items[i], node["items"]


def _first_error(value: object, node: dict, specs: dict) -> tuple[tuple, object] | None:
    """(path, error) of the error a full Draft 2020-12 walk of value reports
    first: the one at the smallest path, and at one path the first keyword;
    specs are the item specs of node's schema, as _inlined gives them."""
    if (error := _own_error(value, node)) is not None:
        return (), error
    for key, part, sub in _children(value, node, specs):
        if (found := _first_error(part, sub, specs)) is not None:
            return (key, *found[0]), found[1]
    return None


def validate_document(doc: object, schema_name: str) -> None:
    """Schema-check a parsed document; FormatError names the bad path.

    A document is first checked in bulk against the spec of its schema's
    root, a column check of all values at each schema node: the logits of
    all sentences of a score, structure or sentences file are one column,
    and each params matrix is its own.  A document that passes is valid.
    Any other, and every gold file, whose triples mix integers and
    strings, gets one walk of the schema, in which the items of each leaf
    array (of scalars, of leaf arrays, or of records whose properties all
    have specs) are one bulk check again.  Only a column that fails is
    bisected for its first bad item and walked from there, so the location
    and message are those a full walk reports first, in jsonschema 4.26's
    words, but a document of the wrong type, or a long array or object,
    is named by its JSON type, not printed."""
    schema, spec, specs = _inlined(schema_name)
    if spec is not None and _column_ok([doc], spec):
        return
    if (found := _first_error(doc, schema, specs)) is not None:
        where, message = found
        if not isinstance(message, str):
            value, rest = message
            named = isinstance(value, (list, dict)) and (not where or len(repr(value)) > SHOWN_MAX)
            kind = "an array" if isinstance(value, list) else "an object"
            message = (kind if named else repr(value)) + rest
        where = "/".join(map(str, where)) or "<root>"
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


class _collector_paused:
    """No cyclic garbage collection inside; the collector's prior state after.

    Parsing allocates a container per JSON array and object.  Every 700
    of them start a collection of the young ones, and what survives piles
    up until full collections walk it all again.  A parsed document holds
    no reference cycle, so none of those walks frees anything: on a score
    file of 3,000 sentences they took a fifth of `spanrel decode`.  The
    same holds for what a command builds from a document, so `cli.main`
    runs each whole command inside this pause, and a long-lived process
    that calls it still runs its collections between commands.  The
    loaders keep their own pause for library callers; nested inside a
    command's, it does nothing.  This is the one place in the package
    that sets the collector's state.

    A class, not a generator: turning the collector back on is the last
    thing the pause does and allocates nothing after it, so the young
    collection the paused allocations have made due runs in the caller,
    not inside the pause's exit."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.enabled:
            gc.enable()


def load_document(path: str, schema_name: str) -> object:
    """Read path and validate it as a schema_name document, with the cyclic
    collector paused.

    orjson reads an integer beyond 64 bits as a float and has no nesting
    limit, and both show only when validation refuses the document.  So a
    refused document is read again by read_json_stdlib and validated
    again, and that verdict stands."""
    with _collector_paused():
        doc = read_json(path)
        try:
            validate_document(doc, schema_name)
        except (FormatError, RecursionError):
            doc = read_json_stdlib(path)
            validate_document(doc, schema_name)
        return doc


_NON_ASCII = re.compile("[^\x00-\x7e]")


def _ascii_escape(match: re.Match) -> str:
    """json's escape of one character: \\u00e9, or a surrogate pair."""
    code = ord(match.group())
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


# A JSON null in orjson's compact output: it follows ":", "," or "[" or
# starts the text, and precedes ",", "]", "}" or the final newline.  Text
# inside a string can match too, which costs only the stdlib check.
_NULL_LITERAL = re.compile(rb"(?<![^:,\[])null(?=[,\]}\n])")


def _stdlib_canonical(doc: object) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


def _canonical_bytes(doc: object) -> bytes:
    try:
        data = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:
        # numpy scalars, integers beyond 64 bits, lone surrogates, deep nesting
        return _stdlib_canonical(doc).encode("ascii")
    if b"null" in data and _NULL_LITERAL.search(data):
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


_SURROGATE = re.compile("[\ud800-\udfff]")


def load_sentences(path: str) -> list[tuple[str, ...]]:
    doc = load_document(path, "sentences")
    sentences = [tuple(entry["tokens"]) for entry in doc["sentences"]]
    # The stdlib reader, unlike orjson, lets a lone surrogate through.
    if _SURROGATE.search("".join(chain.from_iterable(sentences))):
        pos, i = next((pos, i) for pos, tokens in enumerate(sentences)
                      for i, token in enumerate(tokens) if _SURROGATE.search(token))
        raise FormatError(f"invalid sentences document at sentences/{pos}/tokens/{i}: "
                          f"{shown(sentences[pos][i])} holds a lone surrogate")
    return sentences


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


def score_document(results: Iterable, seed: int) -> dict:
    """Pack forward results (all from the same params) into one document.

    results are (input position, ForwardResult) pairs in any order, as
    pipeline.forward_stacks yields them; enumerate a list of results in
    sentence order.  Each is packed as it is yielded, so a generator of
    forward passes need not hold them all."""
    entries: dict[int, dict] = {}
    for pos, result in results:
        entries[pos] = _score_entry(result)
        inv, bias = result.instance.inventory, result.instance.bias
        del result  # frees its stack's arrays before the next stack is scored
    if not entries:
        raise ValueError("need at least one scored sentence")
    return {
        "version": 2,  # version 1 also held each sentence's ranking vectors
        "seed": seed,
        "entity_types": list(inv.entity_types),
        "relation_types": list(inv.relation_types),
        "bias": to_json(bias) if bias is not None else None,
        "sentences": [entries[pos] for pos in range(len(entries))],
    }


def _logit_grid(rows: list, types: int) -> np.ndarray:
    """One read-only row of logits per candidate; no candidates is a
    (0, types) grid."""
    grid = np.asarray(rows, dtype=np.float64)
    grid = grid if len(rows) else grid.reshape(0, types)
    grid.flags.writeable = False
    return grid


def _logit_views(entries: list, key: str, types: int) -> list[np.ndarray] | None:
    """Each sentence's logits under key, as views of one read-only array
    converted for the whole file; None unless every row has types entries,
    and then each sentence is converted and checked on its own."""
    rows = list(chain.from_iterable(entry[key] for entry in entries))
    if set(map(len, rows)) - {types}:
        return None
    flat = chain.from_iterable(rows)
    try:
        grid = np.fromiter(flat, dtype=np.float64, count=len(rows) * types)
    except (TypeError, ValueError):  # left to the per-sentence conversion
        return None
    grid = grid.reshape(len(rows), types)
    grid.flags.writeable = False
    starts = list(accumulate((len(entry[key]) for entry in entries), initial=0))
    return [grid[a:b] for a, b in zip(starts, starts[1:])]


def instances_from_score_doc(doc: dict) -> list[ScoredInstance]:
    """Rebuild decoder inputs from a validated score document.

    The entity logits of all sentences are converted to one array, and so
    are the relation logits; each instance holds read-only views of them."""
    inventory = TypeInventory(
        tuple(doc["entity_types"]), tuple(doc["relation_types"])
    )
    bias = None
    if doc.get("bias") is not None:
        try:
            bias = from_json(BiasTable, doc["bias"])
        except ValueError as exc:
            raise FormatError(f"score bias: {exc}") from exc
        e, r = inventory.num_entity_types, inventory.num_relation_types
        if bias.joint.shape != (e, e, r):
            raise FormatError(
                f"score bias: joint table has shape {bias.joint.shape}, "
                f"the inventory needs ({e}, {e}, {r})"
            )
    entries = doc["sentences"]
    n_ent, n_rel = inventory.num_entity_types, inventory.num_relation_types
    ent_views = _logit_views(entries, "entity_logits", n_ent)
    rel_views = _logit_views(entries, "relation_logits", n_rel)
    out = []
    for pos, entry in enumerate(entries):
        try:
            ent = ent_views[pos] if ent_views else _logit_grid(entry["entity_logits"], n_ent)
            rel = rel_views[pos] if rel_views else _logit_grid(entry["relation_logits"], n_rel)
            out.append(
                ScoredInstance(
                    length=entry["length"],
                    spans=tuple(map(tuple, entry["spans"])),
                    entity_logits=ent,
                    pairs=tuple(map(tuple, entry["pairs"])),
                    relation_logits=rel,
                    inventory=inventory,
                    bias=bias,
                    tokens=tuple(entry["tokens"]) if "tokens" in entry else None,
                )
            )
        except ValueError as exc:
            raise FormatError(f"score sentence {pos}: {exc}") from exc
    return out


def load_score_file(path: str) -> tuple[dict, list[ScoredInstance]]:
    """The validated score document and its decoder inputs, loaded with the
    cyclic collector paused (see load_document)."""
    with _collector_paused():
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
    return load_document(path, "structure")


# ---------------------------------------------------------------------------
# constraints

BUNDLED_CONSTRAINTS = ("conll04", "ace05")


def load_constraint_set(name_or_path: str) -> ConstraintSet:
    """Resolve a bundled fixture name (conll04, ace05) or a file path.

    A bundled set is read once per process and the same object returned
    after; a file is read on every call."""
    if name_or_path in BUNDLED_CONSTRAINTS:
        return _bundled_constraint_set(name_or_path)
    return _constraint_set(load_document(name_or_path, "constraints"), name_or_path)


@cache
def _bundled_constraint_set(name: str) -> ConstraintSet:
    text = (
        resources.files("spanrel")
        .joinpath("data", f"{name}_constraints.json")
        .read_text(encoding="utf-8")
    )
    doc = json.loads(text)
    validate_document(doc, "constraints")
    return _constraint_set(doc, f"bundled:{name}")


def _constraint_set(doc: dict, origin: str) -> ConstraintSet:
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
