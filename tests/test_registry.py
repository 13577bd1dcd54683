"""Merge, lookup/enumerate and macro evaluation against the registry."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from rjs import Heap, Registry
from rjs.errors import (
    ConflictError,
    HostExecError,
    NotANamespace,
    NotFound,
    NotQuiescent,
    UnknownType,
    ValidationError,
)
from rjs.model import NamespaceNode, OverloadSet
from rjs.registry import eval_macro, merge, parse_manifest

PI_MANIFEST = json.dumps({
    "namespaces": ["ROOT.Math"],
    "functions": [{"name": "Pi", "namespace": "ROOT.Math", "params": [], "returns": "f64",
                   "body": [{"op": "ret", "value": {"op": "const", "value": 3.141592653589793}}]}],
})


@pytest.fixture
def registry():
    return Registry()


@pytest.fixture
def heap(registry):
    return Heap(registry)


def test_parse_leaves_version_untouched(registry):
    parse_manifest('{"namespaces": ["ROOT"]}')
    assert registry.version == 0


def test_merge_pi_manifest(registry, heap):
    version = merge(registry, parse_manifest(PI_MANIFEST), heap)
    assert (registry.version, version) == (1, 1)
    found = registry.lookup("ROOT.Math.Pi")
    assert isinstance(found, OverloadSet) and len(found) == 1


def test_double_merge_is_conflict_and_version_stable(registry, heap):
    text = json.dumps({"types": [{"name": "T"}]})
    merge(registry, parse_manifest(text), heap)
    with pytest.raises(ConflictError):
        merge(registry, parse_manifest(text), heap)
    assert registry.version == 1


def test_overloads_accumulate_across_manifests(registry, heap):
    first = json.dumps({"types": [{
        "name": "TH1",
        "methods": [{"name": "Fill", "params": ["f64", "f64"], "returns": "void"}],
    }]})
    second = json.dumps({"types": [{
        "name": "TH1",
        "methods": [{"name": "Fill", "params": ["cstr", "f64"], "returns": "void"}],
    }]})
    merge(registry, parse_manifest(first), heap)
    merge(registry, parse_manifest(second), heap)
    desc = registry.lookup("TH1")
    assert len(desc.methods["Fill"]) == 2
    assert registry.version == 2


def test_extension_with_fields_is_redeclaration(registry, heap):
    merge(registry, parse_manifest(json.dumps({"types": [{"name": "T"}]})), heap)
    redo = json.dumps({"types": [{"name": "T", "fields": [{"name": "x", "kind": "f64"}]}]})
    with pytest.raises(ConflictError, match="already declared"):
        merge(registry, parse_manifest(redo), heap)


def test_duplicate_overload_across_manifests_rejected(registry, heap):
    sig = {"name": "Fill", "params": ["f64"], "returns": "void"}
    merge(registry, parse_manifest(json.dumps({"types": [{"name": "T", "methods": [sig]}]})), heap)
    again = json.dumps({"types": [{"name": "T", "methods": [dict(sig, returns="i64")]}]})
    with pytest.raises(ConflictError, match="indistinguishable"):
        merge(registry, parse_manifest(again), heap)
    assert registry.version == 1


def test_free_function_overloads_append(registry, heap):
    one = json.dumps({"functions": [{"name": "f", "params": ["f64"], "returns": "void"}]})
    two = json.dumps({"functions": [{"name": "f", "params": ["cstr"], "returns": "void"}]})
    merge(registry, parse_manifest(one), heap)
    merge(registry, parse_manifest(two), heap)
    assert len(registry.lookup("f")) == 2


def test_global_redeclaration_rejected(registry, heap):
    text = json.dumps({"globals": [{"name": "g", "kind": "i64"}]})
    merge(registry, parse_manifest(text), heap)
    with pytest.raises(ConflictError):
        merge(registry, parse_manifest(text), heap)


def test_enum_redeclaration_rejected(registry, heap):
    text = json.dumps({"enums": {"E": {"a": 1}}})
    merge(registry, parse_manifest(text), heap)
    with pytest.raises(ConflictError):
        merge(registry, parse_manifest(text), heap)
    assert registry.version == 1


def test_cross_category_conflicts(registry, heap):
    merge(registry, parse_manifest(json.dumps({"types": [{"name": "X"}]})), heap)
    for section in (
        {"namespaces": ["X"]},
        {"globals": [{"name": "X", "kind": "i64"}]},
        {"functions": [{"name": "X", "params": [], "returns": "void"}]},
    ):
        with pytest.raises(ConflictError):
            merge(registry, parse_manifest(json.dumps(section)), heap)


def test_unknown_base_rejected(registry, heap):
    bad = json.dumps({"types": [{"name": "T", "bases": ["Missing"]}]})
    with pytest.raises(UnknownType):
        merge(registry, parse_manifest(bad), heap)
    assert registry.version == 0


def test_cyclic_bases_rejected(registry, heap):
    bad = json.dumps({"types": [
        {"name": "A", "bases": ["B"]},
        {"name": "B", "bases": ["A"]},
    ]})
    with pytest.raises(ValidationError, match="cyclic"):
        merge(registry, parse_manifest(bad), heap)


def test_cycle_through_three_new_types_rejected(registry, heap):
    bad = json.dumps({"types": [
        {"name": "A", "bases": ["B"]},
        {"name": "B", "bases": ["C"]},
        {"name": "C", "bases": ["A"]},
    ]})
    with pytest.raises(ValidationError, match="cyclic"):
        merge(registry, parse_manifest(bad), heap)
    assert registry.version == 0
    assert registry.find_type("A") is None


DIAMOND = [
    {"name": "D", "fields": [{"name": "d", "kind": "i64", "initial": 4}]},
    {"name": "B", "bases": ["D"], "fields": [{"name": "b", "kind": "i64"}]},
    {"name": "C", "bases": ["D"], "fields": [{"name": "c", "kind": "i64"}]},
]


def test_diamond_accepted_with_shared_ancestor_once(registry, heap):
    types = [*DIAMOND, {"name": "T", "bases": ["B", "C"],
                        "fields": [{"name": "t", "kind": "i64"}]}]
    merge(registry, parse_manifest(json.dumps({"types": types})), heap)
    assert [d.qualified_name for d in registry.base_chain("T")] == ["T", "B", "C", "D"]
    assert registry.subtype_distance("T", "D") == 2
    storage = heap.objects[heap.construct("T")].storage
    assert list(storage) == ["d", "c", "b", "t"]  # root base first, D's field once
    assert storage["d"].value == 4


def test_field_shadowing_through_one_side_of_a_diamond_rejected(registry, heap):
    types = [*DIAMOND, {"name": "T", "bases": ["B", "C"],
                        "fields": [{"name": "b", "kind": "i64"}]}]
    with pytest.raises(ConflictError, match="'T': field 'b' shadows"):
        merge(registry, parse_manifest(json.dumps({"types": types})), heap)
    assert registry.version == 0


def test_same_field_from_two_unrelated_ancestors_rejected(registry, heap):
    types = [
        {"name": "B", "fields": [{"name": "x", "kind": "f64"}]},
        {"name": "C", "fields": [{"name": "x", "kind": "cstr"}],
         "methods": [{"name": "SetX", "params": ["cstr"], "body": [
             {"op": "set", "field": "x", "value": {"op": "param", "index": 0}}]}]},
        {"name": "T", "bases": ["B", "C"]},
    ]
    with pytest.raises(ConflictError, match="'T': field 'x' is declared by both 'C' and 'B'"):
        merge(registry, parse_manifest(json.dumps({"types": types})), heap)
    assert registry.version == 0
    assert registry.find_type("T") is None


def test_a_new_types_ancestors_are_walked_once(registry, heap, monkeypatch):
    chain = [{"name": "A0", "fields": [{"name": "a0", "kind": "i64"}]}]
    chain += [{"name": f"A{i}", "bases": [f"A{i - 1}"]} for i in range(1, 10)]
    merge(registry, parse_manifest(json.dumps({"types": chain})), heap)
    registry.layout("A9")
    lookups: list[str] = []
    lookup = Registry.lookup

    def counted(self, path):
        lookups.append(path)
        return lookup(self, path)

    monkeypatch.setattr(Registry, "lookup", counted)
    eval_macro(registry, heap, json.dumps({
        "types": [{"name": "U", "bases": ["A9"], "fields": [{"name": "u", "kind": "f64"}]}],
        "statements": [{"op": "ret", "value": {"op": "const", "value": 1}}],
    }))
    walked = len(lookups)
    assert sorted(lookups) == sorted(f"A{i}" for i in range(10))  # each ancestor once
    assert list(heap.objects[heap.construct("U")].storage) == ["a0", "u"]
    assert registry.subtype_distance("U", "A0") == 10
    assert len(lookups) == walked  # first use reads the layout the merge kept


def test_merge_into_new_namespace_raises_no_not_found(registry, heap, monkeypatch):
    raised = []
    init = NotFound.__init__

    def counting_init(self, *args, **kwargs):
        raised.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NotFound, "__init__", counting_init)
    types = [{"name": f"T{i}", "namespace": "Fresh.Inner"} for i in range(50)]
    merge(registry, parse_manifest(json.dumps({"types": types})), heap)
    assert len(registry.enumerate("Fresh.Inner").types) == 50
    assert raised == []


def test_field_shadowing_rejected(registry, heap):
    bad = json.dumps({"types": [
        {"name": "A", "fields": [{"name": "x", "kind": "f64"}]},
        {"name": "B", "bases": ["A"], "fields": [{"name": "x", "kind": "i64"}]},
    ]})
    with pytest.raises(ConflictError, match="shadows"):
        merge(registry, parse_manifest(bad), heap)


def test_field_shadowing_rejected_through_a_chain_from_an_earlier_merge(registry, heap):
    merge(registry, parse_manifest(json.dumps({"types": [
        {"name": "A", "fields": [{"name": "x", "kind": "f64"}]},
        {"name": "B", "bases": ["A"], "fields": [{"name": "y", "kind": "f64"}]},
    ]})), heap)
    deep = json.dumps({"types": [
        {"name": "C", "bases": ["B"]},
        {"name": "D", "bases": ["C"], "fields": [{"name": "x", "kind": "i64"}]},
    ]})
    with pytest.raises(ConflictError, match="'D': field 'x' shadows"):
        merge(registry, parse_manifest(deep), heap)
    sibling = json.dumps({"types": [{"name": "E", "bases": ["B"], "fields": [{"name": "z", "kind": "f64"}]}]})
    merge(registry, parse_manifest(sibling), heap)
    assert registry.find_type("E") is not None


PINNED = json.dumps({
    "enums": {"E": {"a": 1}},
    "types": [{"name": "T", "methods": [{"name": "Fill", "params": ["f64"]}]}],
    "functions": [{"name": "f", "params": ["i64"], "returns": "i64"}],
    "globals": [{"name": "g", "kind": "i64"}],
})
NOPE = {"enum": "Nope"}


@pytest.mark.parametrize("section, error, message", [
    ({"types": [{"name": "T", "methods": [{"name": "Fill", "params": ["f64"], "returns": "i64"}]}]},
     ConflictError, "method T.Fill(f64) -> i64 is indistinguishable from an existing overload"),
    ({"functions": [{"name": "f", "params": ["i64"], "returns": "f64"}]},
     ConflictError, "function f(i64) -> f64 [static] is indistinguishable from an existing overload"),
    ({"types": [{"name": "U", "fields": [{"name": "x", "kind": NOPE, "initial": 0}]}]},
     ValidationError, "type U field x: unknown enum 'Nope'"),
    ({"types": [{"name": "U", "methods": [{"name": "m", "params": [NOPE]}]}]},
     ValidationError, "type U method m: unknown enum 'Nope'"),
    ({"types": [{"name": "U", "methods": [{"name": "m", "returns": NOPE}]}]},
     ValidationError, "type U method m: unknown enum 'Nope'"),
    ({"types": [{"name": "U", "ctors": [{"params": [NOPE]}]}]},
     ValidationError, "type U constructor: unknown enum 'Nope'"),
    ({"functions": [{"name": "h", "params": [NOPE]}]},
     ValidationError, "function h: unknown enum 'Nope'"),
    ({"globals": [{"name": "h", "kind": NOPE, "initial": 0}]},
     ValidationError, "global h: unknown enum 'Nope'"),
    ({"globals": [{"name": "h", "kind": {"enum": "E"}, "initial": "b"}]},
     ValidationError, "global h: 'b' is not an enumerator of E"),
    ({"types": [{"name": "U", "fields": [{"name": "x", "kind": {"enum": "E"}, "initial": 2}]}]},
     ValidationError, "type U field x: 2 is not an enumerator value of E"),
    ({"namespaces": ["T.Inner"]}, ConflictError, "'T' already declared as a type"),
    ({"globals": [{"name": "h", "namespace": "f.Inner", "kind": "i64"}]},
     ConflictError, "'f' already declared as a function"),
    ({"types": [{"name": "f"}]}, ConflictError, "'f' already declared as a function"),
    ({"types": [{"name": "g"}]}, ConflictError, "'g' already declared as a global"),
])
def test_each_merge_time_rule_names_its_fault(registry, heap, section, error, message):
    merge(registry, parse_manifest(PINNED), heap)
    with pytest.raises(error) as excinfo:
        merge(registry, parse_manifest(json.dumps(section)), heap)
    assert type(excinfo.value) is error and str(excinfo.value) == message
    assert registry.version == 1


def test_merge_requires_quiescence(registry, heap):
    registry.busy_check = lambda: 2
    with pytest.raises(NotQuiescent):
        merge(registry, parse_manifest('{"namespaces": ["N"]}'), heap)
    assert registry.version == 0


def test_statements_rejected_by_merge(registry, heap):
    ast = parse_manifest(json.dumps(
        {"statements": [{"op": "gset", "name": "g", "value": {"op": "const", "value": 1}}]}
    ))
    with pytest.raises(ValidationError, match="macro-only"):
        merge(registry, ast, heap)


# -- lookup / enumerate -------------------------------------------------------


def test_lookup_empty_path_is_root(registry):
    assert registry.lookup("") is registry.root


def test_lookup_reports_longest_prefix(registry, heap):
    merge(registry, parse_manifest(PI_MANIFEST), heap)
    with pytest.raises(NotFound) as excinfo:
        registry.lookup("ROOT.NoSuch")
    assert excinfo.value.prefix == "ROOT"
    with pytest.raises(NotFound) as excinfo:
        registry.lookup("ROOT.Math.Pi.deep")
    assert excinfo.value.prefix == "ROOT.Math"


def test_enumerate_empty_registry(registry):
    listing = registry.enumerate("")
    assert listing.namespaces == [] and listing.types == []
    assert listing.functions == [] and listing.globals == []


def test_enumerate_non_namespace(registry, heap):
    merge(registry, parse_manifest(PI_MANIFEST), heap)
    with pytest.raises(NotANamespace):
        registry.enumerate("ROOT.Math.Pi")


def test_enumerate_matches_manifest_walk(registry, heap, sample_plugin):
    ast = parse_manifest(sample_plugin.read_text())
    merge(registry, parse_manifest(sample_plugin.read_text()), heap)
    names = support.manifest_names(ast)
    listing = registry.enumerate("ROOT")
    expected_ns = sorted(
        p.split(".")[1] for p in names["namespace"] if p.startswith("ROOT.") and p.count(".") == 1
    )
    assert listing.namespaces == expected_ns
    root_listing = registry.enumerate("")
    assert root_listing.types == sorted(t for t in names["type"] if "." not in t)
    assert root_listing.globals == sorted(g for g in names["global"] if "." not in g)


def test_enumerate_lookup_agreement(registry, heap, sample_plugin):
    merge(registry, parse_manifest(sample_plugin.read_text()), heap)

    def walk(path: str):
        listing = registry.enumerate(path)
        for name in (listing.namespaces + listing.types
                     + listing.functions + listing.globals):
            child = f"{path}.{name}" if path else name
            registry.lookup(child)  # must not raise
        for name in listing.namespaces:
            walk(f"{path}.{name}" if path else name)

    walk("")


# -- eval_macro ----------------------------------------------------------------


def test_macro_assignment_creates_global(registry, heap):
    text = json.dumps({"statements": [
        {"op": "gset", "name": "counter", "value": {"op": "const", "value": 7}},
    ]})
    result = eval_macro(registry, heap, text)
    assert result.version == 1
    assert heap.read_global("counter").value == 7


def test_macro_declares_and_defines_pi(registry, heap):
    eval_macro(registry, heap, PI_MANIFEST)
    assert isinstance(registry.lookup("ROOT.Math.Pi"), OverloadSet)
    assert registry.version == 1


def test_macro_statement_only_still_bumps_version(registry, heap):
    merge(registry, parse_manifest(json.dumps({
        "globals": [{"name": "g", "kind": "i64"}]})), heap)
    result = eval_macro(registry, heap, json.dumps({
        "statements": [{"op": "gset", "name": "g", "value": {"op": "const", "value": 3}}]}))
    assert result.version == 2
    assert heap.read_global("g").value == 3


def test_macro_fault_keeps_declarations_and_version(registry, heap):
    text = json.dumps({
        "namespaces": ["N"],
        "globals": [{"name": "ok", "namespace": "N", "kind": "i64", "initial": 5}],
        "statements": [
            {"op": "gset", "name": "N.ok", "value": {"op": "const", "value": 6}},
            {"op": "bin", "o": "/", "l": {"op": "const", "value": 1},
             "r": {"op": "const", "value": 0}},
        ],
    })
    with pytest.raises(HostExecError, match="division by zero"):
        eval_macro(registry, heap, text)
    assert registry.version == 1  # declarations persisted, version bumped
    assert heap.read_global("N.ok").value == 6  # statements before the fault persisted
    assert isinstance(registry.lookup("N"), NamespaceNode)


def test_macro_returns_final_value(registry, heap):
    text = json.dumps({"statements": [
        {"op": "ret", "value": {"op": "bin", "o": "*",
                                "l": {"op": "const", "value": 6},
                                "r": {"op": "const", "value": 7}}},
    ]})
    result = eval_macro(registry, heap, text)
    assert result.value.tag == "i64" and result.value.value == 42


def test_macro_conflict_leaves_version_alone(registry, heap):
    merge(registry, parse_manifest(json.dumps({"types": [{"name": "T"}]})), heap)
    with pytest.raises(ConflictError):
        eval_macro(registry, heap, json.dumps({"types": [{"name": "T"}]}))
    assert registry.version == 1


def test_version_strictly_increases(registry, heap):
    versions = [registry.version]
    merge(registry, parse_manifest('{"namespaces": ["A"]}'), heap)
    versions.append(registry.version)
    eval_macro(registry, heap, '{"namespaces": ["B"]}')
    versions.append(registry.version)
    merge(registry, parse_manifest('{"namespaces": ["C"]}'), heap)
    versions.append(registry.version)
    assert versions == [0, 1, 2, 3]


# -- merge completeness property -------------------------------------------------

_ident = st.from_regex(r"[a-z][a-z0-9]{0,4}", fullmatch=True)


@st.composite
def _decl_manifest(draw) -> str:
    names = draw(st.lists(_ident, min_size=1, max_size=8, unique=True))
    namespaces = [f"n{n}" for n in names[: len(names) // 2]]
    out: dict = {}
    if namespaces:
        out["namespaces"] = namespaces
    types, functions, globals_ = [], [], []
    for name in names[len(names) // 2:]:
        home = draw(st.sampled_from([""] + namespaces)) if namespaces else ""
        bucket = draw(st.integers(0, 2))
        if bucket == 0:
            types.append({"name": f"T{name}", "namespace": home})
        elif bucket == 1:
            functions.append({"name": f"f{name}", "namespace": home,
                              "params": [], "returns": "void"})
        else:
            globals_.append({"name": f"g{name}", "namespace": home, "kind": "i64"})
    if types:
        out["types"] = types
    if functions:
        out["functions"] = functions
    if globals_:
        out["globals"] = globals_
    return json.dumps(out)


@settings(max_examples=60, deadline=None)
@given(_decl_manifest())
def test_merge_completeness(text: str):
    registry = Registry()
    heap = Heap(registry)
    ast = parse_manifest(text)
    merge(registry, ast, heap)
    names = support.manifest_names(ast)
    for category, paths in names.items():
        for path in paths:
            found = registry.lookup(path)  # must resolve
            if category == "namespace":
                assert isinstance(found, NamespaceNode)
