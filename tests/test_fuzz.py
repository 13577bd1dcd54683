"""Fuzzing the front ends: scripts and manifests fail only with RjsError,
and the lexer reports every token at its line:col."""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from rjs.errors import RjsError
from rjs.registry import parse_manifest
from rjs.script import parse, tokenize

PUNCT = list(".,;(){}=+-*/%")
KEYWORDS = ("let", "fn", "true", "false", "null")
# `²` is a digit to isdigit() but not a decimal digit; `٣` is a decimal digit
SCRIPT_PIECES = (
    PUNCT
    + [chr(c) for c in range(ord("a"), ord("z") + 1)]
    + [chr(c) for c in range(ord("A"), ord("Z") + 1)]
    + list("0123456789")
    + ['"', "\\", " ", "\t", "\r", "\n", "//", "é", "٣", "²"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(SCRIPT_PIECES), max_size=40).map("".join))
def test_script_front_end_raises_only_rjs_errors(source: str):
    for front_end in (tokenize, parse):
        try:
            front_end(source)
        except RjsError:
            pass


# -- rendered tokens come back at their positions -------------------------------------

_ESCAPED = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_GLUE = set("(){},;=+-*%")  # punctuation that never merges with a neighbour


@st.composite
def _token(draw) -> tuple[str, str, object, str]:
    """(type, text, value, source spelling) of one token."""
    kind = draw(st.sampled_from(["ident", "num", "str", "punct"]))
    if kind == "ident":
        text = draw(st.from_regex(r"[A-Za-z_é][A-Za-z0-9_é٣]{0,6}", fullmatch=True))
        return ("kw" if text in KEYWORDS else "ident"), text, text, text
    if kind == "num":
        text = draw(st.from_regex(r"[0-9٣]{1,4}(\.[0-9]{1,3})?([eE][+-]?[0-9]{1,2})?", fullmatch=True))
        return "num", text, float(text), text
    if kind == "str":
        value = draw(st.text(st.sampled_from(list('ab é"\\\n\t\r/')), max_size=8))
        return "str", value, value, '"' + "".join(_ESCAPED.get(c, c) for c in value) + '"'
    text = draw(st.sampled_from(PUNCT))
    return "punct", text, text, text


_separator = st.lists(
    st.sampled_from([" ", "\t", "\r", "\n", " // note é \"\\\n"]), min_size=1, max_size=3
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rendered_tokens_lex_back_at_their_positions(data):
    tokens = data.draw(st.lists(_token(), max_size=12))
    source, expected = "", []
    def glues(token) -> bool:
        return token[0] == "punct" and token[1] in _GLUE

    for i, (type_, text, value, spelling) in enumerate(tokens):
        glued = i > 0 and (glues(tokens[i]) or glues(tokens[i - 1]))
        source += data.draw(st.just("") | _separator) if glued else data.draw(_separator)
        line = source.count("\n") + 1
        expected.append((type_, text, value, line, len(source) - source.rfind("\n")))
        source += spelling
    source += data.draw(st.just("") | _separator)
    expected.append(("eof", "", None, source.count("\n") + 1, len(source) - source.rfind("\n")))
    assert [(t.type, t.text, t.value, t.line, t.col) for t in tokenize(source)] == expected


# -- manifests with wrong-typed leaves ---------------------------------------------------

TEMPLATE = {
    "namespaces": ["N"],
    "enums": {"Color": {"Red": 0, "Green": 1}},
    "types": [
        {
            "name": "T", "namespace": "N", "bases": [],
            "fields": [
                {"name": "x", "kind": "f64", "initial": 1.5},
                {"name": "c", "kind": {"enum": "Color"}, "initial": "Red"},
                {"name": "o", "kind": {"obj": "N.T"}},
            ],
            "methods": [{
                "name": "M", "static": False, "params": ["i64", {"obj": "N.T"}], "returns": "f64",
                "body": [
                    {"op": "set", "field": "x", "value": {
                        "op": "bin", "o": "+", "l": {"op": "get", "field": "x"},
                        "r": {"op": "param", "index": 0}}},
                    {"op": "ret", "value": {"op": "builtin", "name": "sqrt", "args": [
                        {"op": "get", "field": "x"}]}},
                ],
            }],
            "ctors": [{"params": ["f64"], "body": [
                {"op": "set", "field": "x", "value": {"op": "param", "index": 0}}]}],
        },
        {"name": "U", "bases": ["N.T"], "methods": [{"name": "Me", "body": [{"op": "self"}]}]},
    ],
    "functions": [{
        "name": "f", "namespace": "N", "params": [], "returns": "void",
        "body": [{"op": "gset", "name": "N.g", "value": {
            "op": "new", "type": "N.T", "args": [{"op": "const", "value": 2.0}]}}, {"op": "ret"}],
    }],
    "globals": [{"name": "g", "namespace": "N", "kind": "i64", "initial": 3}],
    "statements": [{"op": "gset", "name": "h", "value": {"op": "gget", "name": "N.g"}}],
}


def _slots(node, out: list) -> list:
    """Every (container, key) in `node`, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


_leaf = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
    | st.sampled_from(["i64", "f64", "void", "obj", "enum", "N.T", "Red", "bin", "const", "sqrt"])
)
_json = st.recursive(
    _leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["op", "name", "kind", "value", "args", "obj", "enum"]),
                      inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_manifest_with_wrong_typed_leaves_raises_only_rjs_errors(data):
    manifest = copy.deepcopy(TEMPLATE)
    for _ in range(data.draw(st.integers(1, 4))):
        slots = _slots(manifest, [])
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(_json)
    try:
        parse_manifest(json.dumps(manifest))
    except RjsError:
        pass
