"""orjson's reading never lets through what the stdlib json module refuses.

formats.load_document keeps the document orjson read whenever it passes
validation, and asks json only about the files orjson refuses or that
fail validation.  That rests on one invariant, checked here on generated
sentences files: a file that read_json plus validation accept is accepted
by read_json_stdlib plus validation too, as the same document.  The texts
mix valid tokens with what orjson refuses (NaN, 1e400, a byte-order mark,
lone surrogates, escaped or raw) and integers beyond 64 bits.
"""

from __future__ import annotations

import json

import pytest

from spanrel.formats import FormatError, read_json, read_json_stdlib, validate_document

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_STRINGS = st.builds(json.dumps, st.text(max_size=4), ensure_ascii=st.booleans())
_TOKENS = st.builds(json.dumps, st.text(min_size=1, max_size=4), ensure_ascii=st.booleans())
_NUMBERS = st.one_of(
    st.integers(-(2**80), 2**80).map(str),
    st.integers(2**64, 2**80).map(str),  # beyond 64 bits
    st.integers(-(2**80), -(2**63) - 1).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
)
_REFUSED = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", '"a\\ud800"', '"\\udc00b"', '"\ud800"']
)
_SCALARS = st.one_of(_STRINGS, _STRINGS, _NUMBERS, _REFUSED)


def _json_array(items: list[str]) -> str:
    return "[" + ",".join(items) + "]"


_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3).map(_json_array), max_leaves=4
)


@st.composite
def sentences_files(draw) -> bytes:
    """A sentences document whose first token may be any value, possibly
    with a key the format ignores."""
    sentences = draw(st.lists(st.lists(_TOKENS, min_size=1, max_size=3), min_size=1, max_size=3))
    sentences[0][0] = draw(st.one_of(_TOKENS, _TOKENS, _SCALARS))
    text = '{"sentences":[' + ",".join(
        '{"tokens":[' + ",".join(tokens) + "]}" for tokens in sentences
    ) + "]"
    note = draw(st.one_of(st.none(), _VALUES, _VALUES))
    text += "}" if note is None else f',"note":{note}}}'
    bom = draw(st.sampled_from(["", "", "", "", "\ufeff"]))
    # A lone surrogate written raw is not UTF-8; orjson and json refuse it.
    return (bom + text).encode("utf-8", "surrogatepass")


def _accepted(read, path: str):
    """The document read and validated, None if either step refuses it."""
    try:
        doc = read(path)
        validate_document(doc, "sentences")
    except FormatError:
        return None
    return doc


def _as_orjson_reads(value):
    """value with each integer beyond 64 bits as the float orjson reads."""
    if isinstance(value, dict):
        return {key: _as_orjson_reads(sub) for key, sub in value.items()}
    if isinstance(value, list):
        return [_as_orjson_reads(sub) for sub in value]
    if type(value) is int and not -(2**63) <= value < 2**64:
        return float(value)
    return value


@hypothesis.settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(data=sentences_files())
def test_what_orjson_reads_and_validation_accepts_json_accepts_alike(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "sentences.json"
    path.write_bytes(data)
    fast = _accepted(read_json, str(path))
    if fast is None:
        return
    slow = _accepted(read_json_stdlib, str(path))
    assert slow is not None
    # What the format reads is the same; under the ignored key an integer
    # beyond 64 bits stays the float orjson read, as nothing checks it.
    assert fast["sentences"] == slow["sentences"]
    assert repr(fast) == repr(_as_orjson_reads(slow))
