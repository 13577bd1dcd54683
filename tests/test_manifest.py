"""Manifest parsing, validation and the serialize round-trip."""

from __future__ import annotations

import io
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rjs.registry
from rjs import Bridge
from rjs.errors import ParseError, ValidationError
from rjs.heap import Heap
from rjs.model import (K_BOOL, K_CSTR, K_F64, K_I64, K_STR, K_VOID, Const, FieldDecl, Registry, Return,
                       SetGlobal, enumval, i64)
from rjs.registry import ManifestAST, eval_macro, merge, parse_manifest, serialize_manifest

import support

VEC2 = {
    "types": [{
        "name": "Vec2",
        "fields": [{"name": "x", "kind": "f64"}, {"name": "y", "kind": "f64"}],
        "methods": [{"name": "Mag", "params": [], "returns": "f64", "body": [
            {"op": "ret", "value": {"op": "builtin", "name": "sqrt", "args": [
                {"op": "bin", "o": "+",
                 "l": {"op": "bin", "o": "*", "l": {"op": "get", "field": "x"},
                       "r": {"op": "get", "field": "x"}},
                 "r": {"op": "bin", "o": "*", "l": {"op": "get", "field": "y"},
                       "r": {"op": "get", "field": "y"}}}]}}]}],
    }]
}


def test_minimal_namespace_manifest():
    ast = parse_manifest('{"namespaces": ["ROOT"]}')
    assert ast.namespaces == ("ROOT",)
    assert ast.types == () and ast.functions == () and ast.globals == ()


def test_vec2_manifest_shape():
    ast = parse_manifest(json.dumps(VEC2))
    assert len(ast.types) == 1
    t = ast.types[0]
    assert t.qualified == "Vec2"
    assert [f.name for f in t.fields] == ["x", "y"]
    assert len(t.methods) == 1 and len(t.methods[0].signature.body) == 1


def test_vec2_round_trip_is_structurally_equal():
    first = parse_manifest(json.dumps(VEC2))
    again = parse_manifest(serialize_manifest(first))
    assert first == again


def test_param_out_of_range_is_rejected():
    bad = {
        "types": [{
            "name": "T",
            "methods": [{"name": "m", "params": ["f64", "f64"], "returns": "f64",
                         "body": [{"op": "ret", "value": {"op": "param", "index": 3}}]}],
        }]
    }
    with pytest.raises(ValidationError, match="out of range"):
        parse_manifest(json.dumps(bad))


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as excinfo:
        parse_manifest('{"namespaces": [')
    assert excinfo.value.line >= 1 and excinfo.value.col >= 1


def test_unknown_kind_tag_rejected():
    bad = {"globals": [{"name": "g", "kind": "u32"}]}
    with pytest.raises(ValidationError, match="unknown kind"):
        parse_manifest(json.dumps(bad))


def test_void_parameter_rejected():
    bad = {"functions": [{"name": "f", "params": ["void"], "returns": "void"}]}
    with pytest.raises(ValidationError, match="void"):
        parse_manifest(json.dumps(bad))


def test_self_in_static_method_rejected():
    bad = {
        "types": [{
            "name": "T",
            "methods": [{"name": "m", "static": True, "params": [], "returns": "void",
                         "body": [{"op": "self"}]}],
        }]
    }
    with pytest.raises(ValidationError, match="self"):
        parse_manifest(json.dumps(bad))


def test_field_access_in_free_function_rejected():
    bad = {"functions": [{"name": "f", "params": [], "returns": "f64",
                          "body": [{"op": "ret", "value": {"op": "get", "field": "x"}}]}]}
    with pytest.raises(ValidationError, match="field read"):
        parse_manifest(json.dumps(bad))


def test_param_in_macro_statements_rejected():
    bad = {"statements": [{"op": "ret", "value": {"op": "param", "index": 0}}]}
    with pytest.raises(ValidationError, match="out of range"):
        parse_manifest(json.dumps(bad))


def test_duplicate_type_names_rejected():
    bad = {"types": [{"name": "T"}, {"name": "T"}]}
    with pytest.raises(ValidationError, match="duplicate"):
        parse_manifest(json.dumps(bad))


def test_duplicate_field_names_rejected():
    bad = {"types": [{"name": "T", "fields": [
        {"name": "x", "kind": "f64"}, {"name": "x", "kind": "i64"}]}]}
    with pytest.raises(ValidationError, match="duplicate field"):
        parse_manifest(json.dumps(bad))


def test_repeated_base_rejected():
    bad = {"types": [{"name": "X"}, {"name": "T", "bases": ["X", "X"]}]}
    with pytest.raises(ValidationError, match="base 'X' is listed more than once"):
        parse_manifest(json.dumps(bad))


def test_builtin_name_must_be_a_string():
    bad = {"statements": [{"op": "builtin", "name": ["x"], "args": []}]}
    with pytest.raises(ValidationError, match="unknown builtin"):
        parse_manifest(json.dumps(bad))


@pytest.mark.parametrize("count, bound", [(0, "at least 1"), (2, "at most 1")])
def test_builtin_arity_error_names_the_bound_that_was_crossed(count, bound):
    args = [{"op": "const", "value": 4.0}] * count
    body = [{"op": "ret", "value": {"op": "builtin", "name": "sqrt", "args": args}}]
    bad = {"functions": [{"name": "F", "returns": "f64", "body": body}]}
    with pytest.raises(ValidationError) as caught:
        parse_manifest(json.dumps(bad))
    assert str(caught.value) == f"functions[0]: builtin 'sqrt' takes {bound} argument(s)"


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_manifest("[" * 100000)


def test_deeply_nested_macro_expression_is_a_parse_error():
    leaf = '{"op": "const", "value": 1}'
    expr = '{"op": "bin", "o": "+", "l": ' * 2000 + leaf + f', "r": {leaf}}}' * 2000
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_manifest('{"statements": [' + expr + "]}")


def test_indistinguishable_overloads_in_one_manifest_rejected():
    bad = {
        "types": [{
            "name": "T",
            "methods": [
                {"name": "m", "params": ["f64"], "returns": "void"},
                {"name": "m", "params": ["f64"], "returns": "i64"},
            ],
        }]
    }
    with pytest.raises(ValidationError, match="indistinguishable"):
        parse_manifest(json.dumps(bad))


def test_cross_category_collision_rejected():
    bad = {"namespaces": ["ROOT.Math"],
           "types": [{"name": "Math", "namespace": "ROOT"}]}
    with pytest.raises(ValidationError, match="collides"):
        parse_manifest(json.dumps(bad))


def test_unknown_statement_keys_rejected():
    bad = {"statements": [{"op": "gset", "name": "g", "value": {"op": "const", "value": 1},
                           "extra": True}]}
    with pytest.raises(ValidationError, match="unknown key"):
        parse_manifest(json.dumps(bad))


def test_enum_initial_requires_value():
    bad = {"enums": {"E": {"a": 1}},
           "globals": [{"name": "g", "kind": {"enum": "E"}}]}
    with pytest.raises(ValidationError, match="initial"):
        parse_manifest(json.dumps(bad))


def test_nonfinite_json_constants_rejected():
    bad = '{"statements": [{"op": "gset", "name": "g", "value": {"op": "const", "value": Infinity}}]}'
    with pytest.raises(ValidationError, match="non-finite"):
        parse_manifest(bad)
    with pytest.raises(ValidationError, match="non-finite"):
        parse_manifest('{"globals": [{"name": "g", "kind": "f64", "initial": NaN}]}')
    for number in ("1e400", "-1e400"):  # finite tokens that overflow binary64
        message = f"^non-finite number '{number}' is not a valid constant$"
        with pytest.raises(ValidationError, match=message):
            parse_manifest(bad.replace("Infinity", number))
        with pytest.raises(ValidationError, match=message):
            parse_manifest(f'{{"globals": [{{"name": "g", "kind": "f64", "initial": {number}}}]}}')


HUGE = 10**400  # an integer token: json hands it over as an int, past the float hook


@pytest.mark.parametrize("manifest, message", [
    ({"globals": [{"name": "g", "kind": "f64", "initial": HUGE}]},
     f"global g: initial {HUGE} outside the f64 range"),
    ({"types": [{"name": "T", "fields": [{"name": "x", "kind": "f64", "initial": -HUGE}]}]},
     f"type T field x: initial {-HUGE} outside the f64 range"),
], ids=["global", "field"])
def test_integer_f64_initial_beyond_binary64_rejected(manifest, message):
    with pytest.raises(ValidationError) as excinfo:
        parse_manifest(json.dumps(manifest))
    assert str(excinfo.value) == message


def test_const_parsing_distinguishes_int_and_float():
    text = {"statements": [
        {"op": "gset", "name": "a", "value": {"op": "const", "value": 3}},
        {"op": "gset", "name": "b", "value": {"op": "const", "value": 3.0}},
    ]}
    ast = parse_manifest(json.dumps(text))
    first, second = ast.statements
    assert first.value.value.tag == "i64"
    assert second.value.value.tag == "f64"


def test_statement_shapes():
    text = {"statements": [
        {"op": "gset", "name": "g", "value": {"op": "const", "value": 1}},
        {"op": "ret"},
    ]}
    ast = parse_manifest(json.dumps(text))
    assert ast.statements[0] == SetGlobal("g", Const(i64(1)))
    assert ast.statements[1] == Return(None)


# -- property: parse -> serialize -> parse is the identity --------------------

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_kind = st.sampled_from(["i64", "f64", "bool", "cstr", "str"])
_scalar_initial = {
    "i64": st.integers(-(2**63), 2**63 - 1),
    "f64": st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "cstr": _ident,
    "str": _ident,
}


@st.composite
def _manifests(draw) -> str:
    names = draw(st.lists(_ident, min_size=1, max_size=6, unique=True))
    rng_split = draw(st.integers(0, len(names)))
    ns_names, rest = names[:rng_split], names[rng_split:]
    out: dict = {}
    if ns_names:
        out["namespaces"] = [f"ns_{n}" for n in ns_names]
    enums = {
        f"E_{name}": table
        for name, table in draw(st.dictionaries(
            _ident, st.dictionaries(_ident, st.integers(-3, 3), min_size=1, max_size=3),
            max_size=2)).items()
    }
    if enums:
        out["enums"] = enums
    # a kind may name an enum or a type this manifest does not declare: merge checks those
    type_names = [f"T_{name}" for name in rest] + ["Ext.Thing"]
    any_kind = st.one_of(
        _kind,
        st.sampled_from([*enums, "E_elsewhere"]).map(lambda e: {"enum": e}),
        st.sampled_from(type_names).map(lambda t: {"obj": t}),
    )

    def field(name: str) -> dict:
        kind = draw(any_kind)
        entry = {"name": name, "kind": kind}
        if isinstance(kind, dict) and "enum" in kind:  # by name or by value
            table = enums.get(kind["enum"], {"x": 0})
            entry["initial"] = draw(st.sampled_from([*table, *table.values()]))
        elif isinstance(kind, str) and draw(st.booleans()):
            entry["initial"] = draw(_scalar_initial[kind])
        elif isinstance(kind, dict) and draw(st.booleans()):
            entry["initial"] = None
        return entry

    def body(arity: int, instance: bool) -> list:
        value = draw(st.sampled_from(
            [{"op": "const", "value": 1.5}]
            + [{"op": "param", "index": i} for i in range(arity)]
            + ([{"op": "self"}, {"op": "get", "field": "f0"}] if instance else [])))
        steps = [[], [{"op": "ret"}], [{"op": "ret", "value": value}]]
        if instance:
            steps.append([{"op": "set", "field": "f0", "value": value}])
        return draw(st.sampled_from(steps))

    def signatures(count: int) -> list[list]:
        params = draw(st.lists(st.lists(any_kind, max_size=2), max_size=count))
        return [p for i, p in enumerate(params) if p not in params[:i]]  # distinguishable

    types = []
    functions = []
    globals_ = []
    for i, name in enumerate(rest):
        bucket = draw(st.integers(0, 2))
        namespace = draw(st.sampled_from([""] + [f"ns_{n}" for n in ns_names])) if ns_names else ""
        if bucket == 0:
            spec: dict = {"name": f"T_{name}", "namespace": namespace,
                          "fields": [field(f"f{j}") for j in range(draw(st.integers(0, 3)))]}
            bases = draw(st.lists(st.sampled_from(type_names), max_size=2, unique=True))
            if bases:
                spec["bases"] = bases
            methods = []
            for method in ("Get", "Set"):
                for params in signatures(2):
                    static = draw(st.booleans())
                    entry = {"name": method, "params": params, "body": body(len(params), not static)}
                    if static:
                        entry["static"] = True
                    if draw(st.booleans()):
                        entry["returns"] = draw(any_kind)
                    methods.append(entry)
            if methods:
                spec["methods"] = methods
            ctors = [{"params": p, "body": body(len(p), True)} for p in signatures(2)]
            if ctors:
                spec["ctors"] = ctors
            types.append(spec)
        elif bucket == 1:
            arity = draw(st.integers(0, 3))
            functions.append({
                "name": f"fn_{name}",
                "namespace": namespace,
                "params": [draw(_kind) for _ in range(arity)],
                "returns": draw(st.sampled_from(["void", "f64", "i64", "cstr"])),
                "body": [{"op": "ret"}] if draw(st.booleans()) else [],
            })
        else:
            globals_.append(dict(field(f"g_{name}"), namespace=namespace))
    if types:
        out["types"] = types
    if functions:
        out["functions"] = functions
    if globals_:
        out["globals"] = globals_
    return json.dumps(out)


@settings(max_examples=60, deadline=None)
@given(_manifests())
def test_round_trip_property(text: str):
    first = parse_manifest(text)
    assert isinstance(first, ManifestAST)
    second = parse_manifest(serialize_manifest(first))
    assert first == second
    # serialization is a fixpoint after one pass
    assert serialize_manifest(first) == serialize_manifest(second)


# -- the per-process plugin memo -----------------------------------------------------


@pytest.fixture
def parses(monkeypatch) -> list[str]:
    """Texts that reached the real parser, with the memo emptied first."""
    seen: list[str] = []
    real = rjs.registry._parse_manifest

    def counted(text: str) -> ManifestAST:
        seen.append(text)
        return real(text)

    monkeypatch.setattr(rjs.registry, "_parse_manifest", counted)
    with rjs.registry._memo_lock:
        rjs.registry._memo.clear()
    return seen


def load_in_new_bridge(path) -> Bridge:
    bridge = Bridge(workers=1, diag=io.StringIO())
    bridge.loadlibrary(str(path))
    return bridge


def test_same_plugin_text_loaded_twice_is_parsed_once(tmp_path, parses):
    path = tmp_path / "vec.plugin"
    path.write_text(json.dumps(VEC2))
    first, second = load_in_new_bridge(path), load_in_new_bridge(path)
    try:
        assert len(parses) == 1
        for bridge in (first, second):
            assert bridge.registry.enumerate("").types == ["Vec2"]
    finally:
        first.shutdown()
        second.shutdown()


def test_plugin_rewritten_at_the_same_path_is_parsed_again(tmp_path, parses):
    path = tmp_path / "p.plugin"
    path.write_text(json.dumps({"types": [{"name": "Old"}]}))
    first = load_in_new_bridge(path)
    path.write_text(json.dumps({"types": [{"name": "New"}]}))
    second = load_in_new_bridge(path)
    try:
        assert len(parses) == 2
        assert first.registry.enumerate("").types == ["Old"]
        assert second.registry.enumerate("").types == ["New"]
    finally:
        first.shutdown()
        second.shutdown()


@pytest.mark.parametrize("text, error", [
    ("{ not json", ParseError),
    (json.dumps({"tpyes": []}), ValidationError),
    ('{"functions": [{"name": "F", "params": [], "returns": "i64", "body": [{"op": "ret", "value": '
     + '{"op": "bin", "o": "+", "l": {"op": "const", "value": 1}, "r": ' * 3000
     + '{"op": "const", "value": 1}' + "}" * 3000 + "}]}]}", ParseError),
], ids=["malformed-json", "unknown-key", "nesting-too-deep"])
def test_invalid_plugin_fails_the_same_way_on_every_load(tmp_path, parses, text, error):
    path = tmp_path / "bad.plugin"
    path.write_text(text)
    bridge = Bridge(workers=1, diag=io.StringIO())
    try:
        failures = []
        for _ in range(2):
            with pytest.raises(error) as caught:
                bridge.loadlibrary(str(path))
            failures.append((type(caught.value), str(caught.value)))
        assert failures[0] == failures[1]
        assert len(parses) == 2
        assert text not in rjs.registry._memo
    finally:
        bridge.shutdown()


def test_macro_with_statements_is_parsed_on_every_evalmacro(parses):
    text = json.dumps({"statements": [{"op": "ret", "value": {"op": "const", "value": 7}}]})
    bridge = Bridge(workers=1, diag=io.StringIO())
    try:
        assert bridge.evalmacro(text) == 7.0
        assert bridge.evalmacro(text) == 7.0
        assert parses == [text, text]
        assert text not in rjs.registry._memo
    finally:
        bridge.shutdown()


def test_bridges_sharing_a_memoised_plugin_keep_their_own_registries(sample_plugin, parses):
    text = sample_plugin.read_text(encoding="utf-8")
    first, second = load_in_new_bridge(sample_plugin), load_in_new_bridge(sample_plugin)
    try:
        assert len(parses) == 1

        def snapshot(bridge: Bridge):
            registry = bridge.registry
            listings = {path: registry.enumerate(path) for path in ("", "ROOT", "ROOT.Math", "ROOT.IO")}
            methods = {
                name: {m: list(s.signatures) for m, s in registry.methods.get(name, {}).items()}
                for name in registry.enumerate("").types
            }
            return listings, methods, dict(bridge.heap.globals)

        before = snapshot(second)
        first.evalmacro(json.dumps({
            "types": [{"name": "TH1D", "methods": [
                {"name": "Extra", "params": [], "returns": "i64",
                 "body": [{"op": "ret", "value": {"op": "const", "value": 1}}]}]}],
            "globals": [{"name": "gAdded", "kind": "i64", "initial": 2}],
            "statements": [{"op": "gset", "name": "gDebug", "value": {"op": "const", "value": 3}}],
        }))
        assert first.registry.method_set("TH1D", "Extra") is not None
        assert first.heap.read_global("gDebug") == i64(3)
        assert snapshot(second) == before
        assert second.registry.method_set("TH1D", "Extra") is None
        assert second.heap.read_global("gDebug") == i64(0)
        assert rjs.registry._memo[text] == rjs.registry._parse_manifest(text)
    finally:
        first.shutdown()
        second.shutdown()


def test_memo_holds_no_more_than_its_bound_and_drops_the_least_recent(parses):
    bound = rjs.registry.MANIFEST_MEMO_SIZE
    texts = [json.dumps({"namespaces": [f"N{i}"]}) for i in range(bound + 3)]
    for text in texts[:bound]:
        parse_manifest(text)
    parse_manifest(texts[0])  # a hit makes it the most recent
    for text in texts[bound:]:
        parse_manifest(text)
    assert len(rjs.registry._memo) == bound
    parse_manifest(texts[0])  # still held
    parse_manifest(texts[1])  # dropped first
    assert parses == [*texts, texts[1]]


# -- what bridges loading one memoised plugin share -------------------------------------

SHARED_PLUGIN = {
    "namespaces": ["N"],
    "types": [
        {"name": "Base", "namespace": "N",
         "fields": [{"name": "n", "kind": "i64", "initial": 3}, {"name": "x", "kind": "f64"},
                    {"name": "ok", "kind": "bool"}, {"name": "s", "kind": "cstr"},
                    {"name": "t", "kind": "str"}, {"name": "next", "kind": {"obj": "N.Base"}}],
         "ctors": [{"params": []}, {"params": ["i64"], "body": [
             {"op": "set", "field": "n", "value": {"op": "param", "index": 0}}]}],
         "methods": [{"name": "Get", "params": ["f64", "cstr"], "returns": "i64",
                      "body": [{"op": "ret", "value": {"op": "get", "field": "n"}}]}]},
        {"name": "Plain", "bases": ["N.Base"], "fields": [{"name": "y", "kind": "f64"}]},
    ],
    "functions": [{"name": "F", "namespace": "N", "params": ["bool", "str"], "returns": "void"}],
    "globals": [{"name": "g", "namespace": "N", "kind": "i64"}],
}
SCALAR_KINDS = (K_I64, K_F64, K_BOOL, K_CSTR, K_STR, K_VOID)


def test_a_plugin_is_declared_once_per_process(tmp_path, parses):
    path = tmp_path / "shared.plugin"
    path.write_text(json.dumps(SHARED_PLUGIN))
    first, second = load_in_new_bridge(path), load_in_new_bridge(path)
    try:
        assert len(parses) == 1
        kinds = []
        index = {name: name for name in first.registry.order}  # each key as the registry holds it
        for name in ("N.Base", "Plain"):
            ours, theirs = first.registry.find_type(name), second.registry.find_type(name)
            assert ours is theirs and first.registry.layouts[name] is second.registry.layouts[name]
            assert ours.fields is theirs.fields and ours.ctors is theirs.ctors
            assert ours.qualified_name is theirs.qualified_name is index[name]
            kinds += [decl.kind for decl in ours.fields]
            table = first.registry.methods.get(name, {})
            assert table is second.registry.methods.get(name, table)
            signatures = [*ours.ctors, *(s for m in table.values() for s in m.signatures)]
            kinds += [k for sig in signatures for k in (*sig.params, sig.returns)]
        kinds += [k for s in first.registry.lookup("N.F").signatures for k in (*s.params, s.returns)]
        kinds.append(first.registry.lookup("N.g").kind)
        scalar = [k for k in kinds if k.tag != "obj"]
        assert len(scalar) == 16 and all(any(k is c for c in SCALAR_KINDS) for k in scalar)
        assert {k.tag for k in scalar} == {c.tag for c in SCALAR_KINDS}
    finally:
        first.shutdown()
        second.shutdown()


def test_enum_fields_resolve_in_each_registry(tmp_path, parses):
    paint = tmp_path / "paint.plugin"
    paint.write_text(json.dumps({"types": [{"name": "Paint", "fields": [
        {"name": "c", "kind": {"enum": "EColor"}, "initial": "kRed"}]}]}))
    bridges = []
    try:
        for value in (1, 2):
            enums = tmp_path / f"enums{value}.plugin"
            enums.write_text(json.dumps({"enums": {"EColor": {"kRed": value}}}))
            bridges.append(load_in_new_bridge(enums))
            bridges[-1].loadlibrary(str(paint))
        assert [b.heap.read_field(b.heap.construct("Paint"), "c") for b in bridges] == [
            enumval("EColor", 1), enumval("EColor", 2)]
        assert parses.count(paint.read_text()) == 1
    finally:
        for b in bridges:
            b.shutdown()


def test_an_extension_stays_in_its_registry(tmp_path, parses):
    path = tmp_path / "shared.plugin"
    path.write_text(json.dumps(SHARED_PLUGIN))
    first, second = load_in_new_bridge(path), load_in_new_bridge(path)
    try:
        first.evalmacro(json.dumps({"types": [{"name": "Plain", "methods": [
            {"name": "Extra", "params": [], "returns": "i64", "static": True,
             "body": [{"op": "ret", "value": {"op": "const", "value": 1}}]}]}]}))
        assert first.registry.method_set("Plain", "Extra") is not None
        assert second.registry.method_set("Plain", "Extra") is None
        assert "Plain" not in second.registry.methods
        assert first.registry.method_set("N.Base", "Extra") is None
    finally:
        first.shutdown()
        second.shutdown()


def test_a_plugins_types_are_shared_unless_an_enum_or_an_outside_base_needs_the_registry(tmp_path, parses):
    outside = tmp_path / "outside.plugin"
    outside.write_text(json.dumps({"enums": {"EColor": {"kRed": 2}},
                                   "types": [{"name": "Ext", "fields": [{"name": "e", "kind": "i64"}]}]}))
    plugin = tmp_path / "mixed.plugin"
    plugin.write_text(json.dumps({"types": [
        {"name": "Root", "fields": [{"name": "r", "kind": "i64", "initial": 1}]},
        {"name": "Mid", "bases": ["Root"], "fields": [{"name": "m", "kind": "f64"}]},
        {"name": "Tip", "bases": ["Mid"]},
        {"name": "Paint", "bases": ["Root"], "fields": [{"name": "c", "kind": {"enum": "EColor"}, "initial": "kRed"}]},
        {"name": "Below", "bases": ["Paint"]},
        {"name": "Out", "bases": ["Ext"], "fields": [{"name": "o", "kind": "bool"}]},
        {"name": "Lone", "methods": [{"name": "Get", "returns": "i64"}]},
        {"name": "UnderLone", "bases": ["Lone"]},
    ]}))
    bridges = []
    try:
        for _ in range(2):
            bridges.append(load_in_new_bridge(outside))
            bridges[-1].loadlibrary(str(plugin))
        ours, theirs = (b.registry for b in bridges)
        assert parses.count(plugin.read_text()) == 1
        for name in ("Root", "Mid", "Tip"):
            assert ours.find_type(name) is theirs.find_type(name)
            assert ours.layouts[name] is theirs.layouts[name]
        for name in ("Paint", "Below", "Out", "Lone", "UnderLone"):
            assert ours.find_type(name) is not theirs.find_type(name)
            assert ours.layouts[name] is not theirs.layouts[name]
        bases = {"Root": [], "Mid": ["Root"], "Tip": ["Mid"], "Paint": ["Root"], "Below": ["Paint"],
                 "Out": ["Ext"], "Ext": [], "Lone": [], "UnderLone": ["Lone"]}
        for registry in (ours, theirs):
            for dynamic in bases:
                distances = {target: support.chain_distance(dynamic, target, bases) for target in bases}
                assert [d.qualified_name for d in registry.base_chain(dynamic)] == sorted(
                    (t for t in bases if distances[t] is not None), key=distances.__getitem__)
                assert {t: registry.subtype_distance(dynamic, t) for t in bases} == distances
        assert ours.field_decl("Below", "c") == FieldDecl("c", ours.field_decl("Paint", "c").kind, enumval("EColor", 2))
        assert ours.method_set("UnderLone", "Get") is theirs.method_set("UnderLone", "Get") is not None
    finally:
        for b in bridges:
            b.shutdown()


def test_an_overload_added_in_one_registry_changes_no_shared_table(tmp_path, parses):
    path = tmp_path / "methods.plugin"
    path.write_text(json.dumps({"types": [
        {"name": "Base", "methods": [{"name": "Get", "params": ["f64"], "returns": "i64"}]},
        {"name": "Derived", "bases": ["Base"]},
        {"name": "Near", "bases": ["Base"], "methods": [{"name": "Get", "params": ["cstr"], "returns": "i64"}]},
    ]}))
    first, second = load_in_new_bridge(path), load_in_new_bridge(path)
    try:
        shared = rjs.registry._memo[path.read_text()].types[0].method_table
        assert first.registry.methods["Base"] is second.registry.methods["Base"] is shared
        first.evalmacro(json.dumps({"types": [{"name": "Base", "methods": [
            {"name": "Get", "params": ["i64"], "returns": "i64"}, {"name": "Put", "params": []}]}]}))
        ours, theirs = first.registry, second.registry
        assert len(ours.method_set("Derived", "Get")) == 2 and ours.method_set("Derived", "Put") is not None
        assert ours.method_set("Derived", "Get") is ours.methods["Base"]["Get"] is not shared["Get"]
        assert len(ours.method_set("Near", "Get")) == 1 and ours.method_set("Near", "Get") is ours.methods["Near"]["Get"]
        assert theirs.methods["Base"] is shared and list(shared) == ["Get"] and len(shared["Get"]) == 1
        assert len(theirs.method_set("Derived", "Get")) == 1 and theirs.method_set("Derived", "Put") is None
        assert first.registry.methods["Near"] is second.registry.methods["Near"]
    finally:
        first.shutdown()
        second.shutdown()


def test_registries_on_two_threads_grow_below_one_shared_chain_end():
    depth, per_thread = 10, 200
    text = json.dumps({"types": [
        {"name": f"C{d}", **({"bases": [f"C{d - 1}"]} if d else {}),
         "fields": [{"name": f"f{d}", "kind": "i64", "initial": d}]} for d in range(depth)]})
    end = f"C{depth - 1}"
    registries = [Registry() for _ in range(2)]
    for registry in registries:
        merge(registry, parse_manifest(text))
    shared = registries[0].layouts[end]
    sizes = (len(shared.path), len(shared.fields))
    start = threading.Barrier(len(registries))
    errors: list[BaseException] = []

    def grow(index: int) -> None:
        try:
            registry = registries[index]
            heap = Heap(registry)
            start.wait()
            for k in range(per_thread):
                eval_macro(registry, heap, json.dumps({
                    "types": [{"name": f"T{index}_{k}", "bases": [end],
                               "fields": [{"name": "x", "kind": "i64", "initial": k}]}],
                    "statements": [{"op": "ret", "value": {"op": "const", "value": k}}]}))
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=grow, args=(i,)) for i in range(len(registries))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert (len(shared.path), len(shared.fields)) == sizes
    for index, registry in enumerate(registries):
        assert registry.layouts[end] is shared
        bases = {f"C{d}": [f"C{d - 1}"] if d else [] for d in range(depth)}
        bases.update({f"T{index}_{k}": [end] for k in range(per_thread)})
        fields = {f"C{d}": (f"f{d}", d) for d in range(depth)}
        fields.update({f"T{index}_{k}": ("x", k) for k in range(per_thread)})
        for dynamic in (*(f"T{index}_{k}" for k in range(0, per_thread, 7)), "C0", end):
            distances = {target: support.chain_distance(dynamic, target, bases) for target in bases}
            expected = {name: FieldDecl(name, K_I64, i64(initial))
                        for owner, (name, initial) in fields.items() if distances[owner] is not None}
            for name in {name for name, _ in fields.values()}:
                assert registry.field_decl(dynamic, name) == expected.get(name)
            assert {t: registry.subtype_distance(dynamic, t) for t in bases} == distances
